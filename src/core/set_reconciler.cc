#include "pbs/core/set_reconciler.h"

#include <algorithm>

namespace pbs {

ReconcileOutcome SetReconciler::Reconcile(const std::vector<uint64_t>& a,
                                          const std::vector<uint64_t>& b,
                                          double d_hat, uint64_t seed) const {
  const std::unique_ptr<ReconcileInitiator> initiator =
      CreateInitiator(a, d_hat, seed);
  const std::unique_ptr<ReconcileResponder> responder =
      CreateResponder(b, d_hat, seed);
  std::vector<uint8_t> request, reply;  // Reused across the rounds.
  while (!initiator->done()) {
    initiator->NextRequest(&request);
    if (!responder->HandleRequest(request, &reply) ||
        !initiator->HandleReply(reply)) {
      return {};  // Fail closed: success stays false.
    }
  }
  ReconcileOutcome outcome = initiator->TakeOutcome();
  const PbsTimers responder_time = responder->timers();
  outcome.encode_seconds += responder_time.encode_seconds;
  outcome.decode_seconds += responder_time.decode_seconds;
  return outcome;
}

SchemeRegistry& SchemeRegistry::Instance() {
  static SchemeRegistry* registry = [] {
    auto* r = new SchemeRegistry();
    RegisterBuiltinSchemes(*r);
    return r;
  }();
  return *registry;
}

bool SchemeRegistry::Register(const std::string& name,
                              const std::string& display_name,
                              SchemeFactory factory) {
  if (Contains(name)) return false;
  entries_.emplace_back(name, Entry{display_name, std::move(factory)});
  return true;
}

std::unique_ptr<SetReconciler> SchemeRegistry::Create(
    const std::string& name, const SchemeOptions& options) const {
  for (const auto& [key, entry] : entries_) {
    if (key == name) return entry.factory(options);
  }
  return nullptr;
}

bool SchemeRegistry::Contains(const std::string& name) const {
  for (const auto& [key, entry] : entries_) {
    if (key == name) return true;
  }
  return false;
}

std::vector<std::string> SchemeRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) names.push_back(key);
  std::sort(names.begin(), names.end());
  return names;
}

std::string SchemeRegistry::DisplayName(const std::string& name) const {
  for (const auto& [key, entry] : entries_) {
    if (key == name) return entry.display_name;
  }
  return "";
}

}  // namespace pbs
