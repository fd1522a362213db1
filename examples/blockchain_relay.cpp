// Blockchain transaction relay -- the paper's motivating application
// (Section 1.3.4, Erlay [31]).
//
// A small peer-to-peer network gossips transactions. Instead of flooding
// full inventories, each peer pair periodically runs PBS over the 32-bit
// short IDs of their mempools and transfers only the missing transactions.
// The demo measures the bandwidth of PBS reconciliation against the naive
// "send every ID" protocol.

#include <cstdio>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "pbs/common/rng.h"
#include "pbs/core/wire_session.h"
#include "pbs/hash/xxhash64.h"

namespace {

struct Transaction {
  uint64_t txid;       // Full 64-bit id (stand-in for a 256-bit hash).
  uint32_t fee;        // Payload; travels only for genuinely missing txs.
};

// A peer's mempool: full transactions keyed by the 32-bit short id that the
// reconciliation protocol operates on (Erlay compresses txids the same way).
struct Peer {
  std::unordered_map<uint64_t, Transaction> mempool;

  static uint64_t ShortId(uint64_t txid) {
    const uint64_t sid = pbs::XxHash64(txid, 0xB17C01) & 0xFFFFFFFF;
    return sid == 0 ? 1 : sid;  // 0 is excluded from the universe.
  }

  void Accept(const Transaction& tx) { mempool[ShortId(tx.txid)] = tx; }

  std::vector<uint64_t> ShortIds() const {
    std::vector<uint64_t> ids;
    ids.reserve(mempool.size());
    for (const auto& [sid, tx] : mempool) ids.push_back(sid);
    return ids;
  }
};

}  // namespace

int main() {
  constexpr int kPeers = 4;
  constexpr int kSharedTxs = 20000;
  constexpr int kFreshTxsPerPeer = 150;

  pbs::Xoshiro256 rng(2026);
  std::vector<Peer> peers(kPeers);

  // Everyone has the historical transaction set...
  for (int i = 0; i < kSharedTxs; ++i) {
    Transaction tx{rng.Next(), static_cast<uint32_t>(rng.NextBounded(1000))};
    for (auto& peer : peers) peer.Accept(tx);
  }
  // ...plus fresh transactions that arrived at one peer each.
  for (int p = 0; p < kPeers; ++p) {
    for (int i = 0; i < kFreshTxsPerPeer; ++i) {
      Transaction tx{rng.Next(), static_cast<uint32_t>(rng.NextBounded(1000))};
      peers[p].Accept(tx);
    }
  }

  std::printf("relaying %d fresh txs among %d peers (mempool ~%d txs)\n\n",
              kFreshTxsPerPeer * kPeers, kPeers, kSharedTxs);

  // One gossip sweep: every (i, j) pair runs a PBS session (ToW estimate
  // phase included, over an in-process loopback); the numerically lower
  // peer plays Alice and pulls what it misses, then pushes its own extras.
  size_t pbs_bytes = 0, naive_bytes = 0, payload_bytes = 0;
  pbs::SessionConfig config;
  config.scheme_name = "pbs";
  config.options.pbs.max_rounds = 5;
  for (int i = 0; i < kPeers; ++i) {
    for (int j = i + 1; j < kPeers; ++j) {
      const auto ids_i = peers[i].ShortIds();
      const auto ids_j = peers[j].ShortIds();
      config.seed = 0x9A5 + i * 16 + j;
      const pbs::SessionResult session =
          pbs::RunLoopbackSession(config, ids_i, ids_j);
      const pbs::ReconcileOutcome& result = session.outcome;
      if (!session.ok || !result.success) {
        std::printf("pair (%d,%d): reconciliation failed!\n", i, j);
        continue;
      }
      pbs_bytes += result.data_bytes + result.estimator_bytes;
      naive_bytes += ids_j.size() * 4;  // Naive: Bob ships all short ids.

      // Transfer the actual transactions both ways.
      int moved = 0;
      for (uint64_t sid : result.difference) {
        payload_bytes += sizeof(Transaction);
        if (peers[i].mempool.count(sid)) {
          peers[j].Accept(peers[i].mempool[sid]);
        } else {
          peers[i].Accept(peers[j].mempool[sid]);
        }
        ++moved;
      }
      std::printf(
          "pair (%d,%d): %3d txs exchanged, %5zu B reconciliation, "
          "%d rounds\n",
          i, j, moved, result.data_bytes, result.rounds);
    }
  }

  // All mempools must now agree.
  bool consistent = true;
  for (int p = 1; p < kPeers; ++p) {
    consistent = consistent &&
                 peers[p].mempool.size() == peers[0].mempool.size();
  }
  std::printf("\nall mempools converged: %s (size %zu)\n",
              consistent ? "yes" : "NO", peers[0].mempool.size());
  std::printf("reconciliation bandwidth: PBS %zu B vs naive %zu B (%.1fx "
              "saving), tx payload %zu B\n",
              pbs_bytes, naive_bytes,
              static_cast<double>(naive_bytes) / pbs_bytes, payload_bytes);
  return consistent ? 0 : 1;
}
