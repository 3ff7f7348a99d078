// Online continual learning: drift-triggered fine-tuning of a shadow
// model, published back through the serving-checkpoint hot-reload path.
//
// An OnlineLearner rebuilds its own ("shadow") copy of a serving
// checkpoint's model — the fleet keeps answering from the weights already
// deployed — and rides the live observation stream:
//
//   Observe(row)  -> ExampleAssembler cuts (history, horizon) examples
//                    out of a serve::StreamState ring;
//                 -> each example is probed (shadow forecast vs realised
//                    targets, raw-scale MAE) and fed to the DriftDetector,
//                    then stored in the bounded ReplayBuffer;
//                 -> when the detector trips and enough replay has
//                    accumulated, an adaptation cycle runs: adapt_steps
//                    pooled+planned train::StepEngine fine-tune steps on
//                    seeded replay batches, then the adapted weights are
//                    re-saved with SaveServingCheckpoint under a bumped
//                    ckpt_version.
//
// The caller (tools/stwa_online, a fleet operator, or online_test's
// adapted-beats-frozen test) then calls
// fleet::ModelProfile::Reload(publish_path()) — the generation-swap
// drains in-flight requests, so the fleet picks up the adapted weights
// with zero drops. With adapt_enabled = false the learner
// still observes, probes and publishes on request, but never steps: the
// re-saved checkpoint is bit-identical in weights, which the tests use to
// prove the swap path itself perturbs nothing.
//
// Everything is deterministic in (checkpoint bytes, config, observation
// sequence): replay sampling is seeded, the engine steps are plan-replayed
// bit-identically, and thread count does not change a single output byte.

#ifndef STWA_ONLINE_ADAPTATION_H_
#define STWA_ONLINE_ADAPTATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/scaler.h"
#include "online/drift_detector.h"
#include "online/replay_buffer.h"
#include "serve/checkpoint.h"
#include "train/step_engine.h"

namespace stwa {
namespace online {

/// Knobs of one online learner.
struct OnlineConfig {
  /// Examples kept for fine-tuning (strict FIFO beyond this).
  int64_t replay_capacity = 256;
  /// Harvest one example every this many observation rows.
  int64_t emit_stride = 1;
  /// Drift thresholds (drift_detector.h).
  DriftConfig drift;
  /// Master switch: false = observe and probe but never fine-tune.
  bool adapt_enabled = true;
  /// StepEngine updates per adaptation cycle.
  int64_t adapt_steps = 24;
  /// Replay examples per fine-tune batch.
  int64_t adapt_batch_size = 8;
  /// Fine-tune learning rate (fresh Adam state per learner, not per
  /// cycle; typically below the offline rate to stay near the optimum).
  float adapt_lr = 5e-4f;
  /// Replay examples required before a cycle may run.
  int64_t min_examples = 16;
  /// Observation rows between cycles (lets the detector re-baseline on
  /// post-adapt errors before it can trip again).
  int64_t cooldown_rows = 64;
  /// Seed of the replay-sampling stream.
  uint64_t seed = 7;
  /// Where adapted checkpoints are re-saved; empty = overwrite the source
  /// checkpoint (the usual fleet arrangement: Reload re-reads the path it
  /// already serves).
  std::string publish_path;
};

/// Counters and timings of the adaptation cycles run so far.
struct AdaptStats {
  /// Completed fine-tune-and-publish cycles.
  int64_t cycles = 0;
  /// StepEngine updates summed over all cycles.
  int64_t fine_tune_steps = 0;
  /// Checkpoints written (cycles + explicit Publish() calls).
  int64_t publishes = 0;
  /// Wall time of the latest cycle, fine-tune through publish.
  double last_cycle_ms = 0.0;
  /// Wall time summed over all cycles.
  double total_ms = 0.0;
  /// Training loss of the last fine-tune step of the latest cycle.
  float last_final_loss = 0.0f;
};

/// Shadow-model continual learner over one serving checkpoint.
class OnlineLearner {
 public:
  /// Rebuilds the checkpoint's model from metadata alone (same
  /// dataset-free family as serve::InferenceSession::Open) and loads its
  /// weights as the shadow copy. Throws on graph-conv baselines or a bad
  /// file.
  OnlineLearner(const std::string& checkpoint_path, OnlineConfig config);

  /// Feeds one raw [N, F] observation row. When the row completes a
  /// (history, horizon) example the shadow model is probed and the replay
  /// buffer extended; when the drift detector is tripped and the cycle
  /// conditions hold (adapt_enabled, min_examples, cooldown) an
  /// adaptation cycle runs inline. Returns true when this row triggered
  /// a completed cycle.
  bool Observe(const std::vector<float>& observation);

  /// Runs one adaptation cycle now, ignoring the drift flag (still
  /// requires adapt_enabled and min_examples; returns false otherwise).
  bool Adapt();

  /// Re-saves the shadow weights under a bumped ckpt_version without any
  /// fine-tune step — the zero-delta publish the swap-path tests use.
  void Publish();

  /// Raw-scale MAE of the shadow model on one example (the probe).
  float ProbeError(const Example& example);

  const serve::ServingInfo& info() const { return info_; }
  const std::string& publish_path() const { return publish_path_; }
  const OnlineConfig& config() const { return config_; }
  const ReplayBuffer& replay() const { return replay_; }
  const DriftDetector& drift() const { return drift_; }
  const AdaptStats& stats() const { return stats_; }
  train::StepEngine& engine() { return *engine_; }

  /// Observation rows consumed.
  int64_t rows_seen() const { return assembler_.steps_seen(); }

  /// Probe error of the most recent example (-1 before the first).
  float last_probe_error() const { return last_probe_error_; }

 private:
  /// The fine-tune loop shared by Observe-triggered and forced cycles.
  void RunCycle();

  OnlineConfig config_;
  std::string publish_path_;
  serve::ServingInfo info_;
  data::StandardScaler scaler_;
  /// Shadow model: this learner's private copy of the checkpoint weights.
  std::unique_ptr<train::ForecastModel> model_;
  std::unique_ptr<train::StepEngine> engine_;
  ExampleAssembler assembler_;
  ReplayBuffer replay_;
  DriftDetector drift_;
  Rng sample_rng_;
  AdaptStats stats_;
  int64_t last_cycle_row_ = -1;
  float last_probe_error_ = -1.0f;
  /// Staging recycled across probes / fine-tune batches.
  Tensor probe_x_;
  data::Batch adapt_batch_;
};

}  // namespace online
}  // namespace stwa

#endif  // STWA_ONLINE_ADAPTATION_H_
