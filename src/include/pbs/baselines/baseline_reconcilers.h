// SetReconcilers for the Section-7/8 baseline schemes. Each scheme is its
// initiator/responder engine pair (baselines/baseline_endpoints.cc), with
// this estimate-handling policy:
//
//   PinSketch     t     = max(1, gamma-inflated d-hat)      (Section 8.1.1)
//   D.Digest      d_est = max(1, round(d-hat))              (raw, [15])
//   Graphene      d_est = max(1, gamma-inflated d-hat)      (Section 8.2)
//   PinSketch/WP  d     = gamma-inflated d-hat, t from the PBS plan
//                 (same delta and t as PBS, Section 8.3)
//
// The file also defines RegisterBuiltinSchemes(), which installs these
// four plus PbsReconciler into a SchemeRegistry.

#ifndef PBS_BASELINES_BASELINE_RECONCILERS_H_
#define PBS_BASELINES_BASELINE_RECONCILERS_H_

#include "pbs/core/set_reconciler.h"

namespace pbs {

class PinSketchReconciler : public SetReconciler {
 public:
  explicit PinSketchReconciler(const SchemeOptions& options);

  const char* name() const override { return "pinsketch"; }
  const char* display_name() const override { return "PinSketch"; }

  /// Protocol engines (docs/WIRE_FORMAT.md).
  std::unique_ptr<ReconcileInitiator> CreateInitiator(
      std::vector<uint64_t> elements, double d_hat,
      uint64_t seed) const override;
  std::unique_ptr<ReconcileResponder> CreateResponder(
      std::vector<uint64_t> elements, double d_hat,
      uint64_t seed) const override;

 private:
  int sig_bits_;
  double gamma_;
};

class DDigestReconciler : public SetReconciler {
 public:
  explicit DDigestReconciler(const SchemeOptions& options);

  const char* name() const override { return "ddigest"; }
  const char* display_name() const override { return "D.Digest"; }

  /// Protocol engines (docs/WIRE_FORMAT.md).
  std::unique_ptr<ReconcileInitiator> CreateInitiator(
      std::vector<uint64_t> elements, double d_hat,
      uint64_t seed) const override;
  std::unique_ptr<ReconcileResponder> CreateResponder(
      std::vector<uint64_t> elements, double d_hat,
      uint64_t seed) const override;

 private:
  int sig_bits_;
};

class GrapheneReconciler : public SetReconciler {
 public:
  explicit GrapheneReconciler(const SchemeOptions& options);

  const char* name() const override { return "graphene"; }
  const char* display_name() const override { return "Graphene"; }

  /// Protocol engines (docs/WIRE_FORMAT.md).
  std::unique_ptr<ReconcileInitiator> CreateInitiator(
      std::vector<uint64_t> elements, double d_hat,
      uint64_t seed) const override;
  std::unique_ptr<ReconcileResponder> CreateResponder(
      std::vector<uint64_t> elements, double d_hat,
      uint64_t seed) const override;

 private:
  int sig_bits_;
  double gamma_;
};

class PinSketchWpReconciler : public SetReconciler {
 public:
  explicit PinSketchWpReconciler(const SchemeOptions& options);

  const char* name() const override { return "pinsketch-wp"; }
  const char* display_name() const override { return "PinSketch/WP"; }
  bool supports_rounds() const override { return true; }

  /// Protocol engines (docs/WIRE_FORMAT.md).
  std::unique_ptr<ReconcileInitiator> CreateInitiator(
      std::vector<uint64_t> elements, double d_hat,
      uint64_t seed) const override;
  std::unique_ptr<ReconcileResponder> CreateResponder(
      std::vector<uint64_t> elements, double d_hat,
      uint64_t seed) const override;

 private:
  PbsConfig config_;       // Shares delta/t planning with PBS (Section 8.3).
  int report_sig_bits_ = 0;
};

}  // namespace pbs

#endif  // PBS_BASELINES_BASELINE_RECONCILERS_H_
