// Set reconciliation over a real transport: two processes reconcile
// across a UNIX socketpair through the framed session layer.
//
// Neither process touches framing or the scheme's engines: both hand their
// set and a ByteTransport to the session driver (core/wire_session.h),
// which runs the scheme's initiator/responder engines. The child serves as
// the responder, the parent initiates with the scheme named on the command
// line (default pbs, with strong verification on), and the driver does the
// handshake, the ToW estimate exchange, the per-scheme rounds, and the
// byte accounting.
//
// Usage: example_socket_sync [scheme]     (any name from `--list-schemes`)

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <vector>

#include "pbs/core/transport.h"
#include "pbs/core/wire_session.h"
#include "pbs/sim/workload.h"

int main(int argc, char** argv) {
  const char* scheme = argc > 1 ? argv[1] : "pbs";
  if (!pbs::SchemeRegistry::Instance().Contains(scheme)) {
    std::fprintf(stderr, "unknown scheme '%s'\n", scheme);
    return 2;
  }

  // A shared corpus with 600 records missing on Alice's side and 200
  // records only she has.
  pbs::SetPair pair = pbs::GenerateTwoSidedPair(80000, 200, 600, 32, 41);
  std::printf("Alice: %zu elements, Bob: %zu elements, true diff: %zu\n",
              pair.a.size(), pair.b.size(), pair.truth_diff.size());

  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    std::perror("socketpair");
    return 1;
  }
  const pid_t child = fork();
  if (child < 0) {
    std::perror("fork");
    return 1;
  }
  if (child == 0) {
    close(fds[0]);
    auto transport = pbs::MakeFdTransport(fds[1]);
    const pbs::SessionResult r = pbs::RunResponderSession(*transport,
                                                          pair.b);
    _exit(r.ok ? 0 : 1);
  }
  close(fds[1]);

  auto transport = pbs::MakeFdTransport(fds[0]);
  pbs::SessionConfig config;
  config.scheme_name = scheme;
  config.options.pbs.max_rounds = 8;
  config.options.pbs.strong_verification = true;
  const pbs::SessionResult result =
      pbs::RunInitiatorSession(*transport, config, pair.a);
  transport.reset();  // EOF to the child if the session aborted early.
  int status = 0;
  waitpid(child, &status, 0);

  if (!result.ok) {
    std::fprintf(stderr, "session failed: %s\n", result.error.c_str());
    return 1;
  }
  std::printf("scheme=%s d-hat=%.1f -> %s in %d rounds; params(%s)\n",
              result.scheme.c_str(), result.d_hat,
              result.outcome.success ? "reconciled" : "FAILED",
              result.outcome.rounds, result.outcome.params_summary.c_str());
  std::printf("recovered %zu differences: %zu payload bytes (+%zu estimator)"
              " carried in %zu wire bytes / %d frames\n",
              result.outcome.difference.size(), result.outcome.data_bytes,
              result.outcome.estimator_bytes, result.outcome.wire_bytes,
              result.outcome.wire_frames);
  const bool correct =
      result.outcome.success &&
      result.outcome.difference.size() == pair.truth_diff.size();
  std::printf("%s\n", correct ? "OK" : "MISMATCH");
  return correct ? 0 : 1;
}
