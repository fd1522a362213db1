#include "pbs/baselines/baseline_reconcilers.h"

#include <memory>

#include "pbs/core/pbs_reconciler.h"

namespace pbs {

PinSketchReconciler::PinSketchReconciler(const SchemeOptions& options)
    : sig_bits_(options.sig_bits), gamma_(options.pbs.gamma) {}

DDigestReconciler::DDigestReconciler(const SchemeOptions& options)
    : sig_bits_(options.sig_bits) {}

GrapheneReconciler::GrapheneReconciler(const SchemeOptions& options)
    : sig_bits_(options.sig_bits), gamma_(options.pbs.gamma) {}

PinSketchWpReconciler::PinSketchWpReconciler(const SchemeOptions& options)
    : config_(options.pbs), report_sig_bits_(options.report_sig_bits) {
  config_.sig_bits = options.sig_bits;
}

void RegisterBuiltinSchemes(SchemeRegistry& registry) {
  registry.Register("pbs", "PBS", [](const SchemeOptions& options) {
    return std::make_unique<PbsReconciler>(options);
  });
  registry.Register("pinsketch", "PinSketch",
                    [](const SchemeOptions& options) {
                      return std::make_unique<PinSketchReconciler>(options);
                    });
  registry.Register("ddigest", "D.Digest", [](const SchemeOptions& options) {
    return std::make_unique<DDigestReconciler>(options);
  });
  registry.Register("graphene", "Graphene",
                    [](const SchemeOptions& options) {
                      return std::make_unique<GrapheneReconciler>(options);
                    });
  registry.Register("pinsketch-wp", "PinSketch/WP",
                    [](const SchemeOptions& options) {
                      return std::make_unique<PinSketchWpReconciler>(options);
                    });
}

}  // namespace pbs
