// Captured, replayable execution plans over the typed graph IR.
//
// A GraphCapture records every tape node created while one training (or
// inference) step is traced eagerly. Finish() freezes the recording into an
// ExecutionPlan:
//
//   * the forward schedule is the recorded op nodes in creation order —
//     which IS the eager execution order — then runs through the fusion
//     passes (ir/rewrite.h): elementwise chains collapse into single
//     kFusedMap steps and attention quads into kFusedAttention steps, so a
//     replay executes fewer, fatter kernels that compute the exact same
//     bits (the fused kernels reuse the unfused per-element paths);
//   * the rewritten schedule is partitioned into dependency-closed regions
//     grouped into stages (ir/regions.h); regions within a stage are
//     independent and may replay concurrently on the worker pool
//     (runtime/parallel.h) with a deterministic join — each region writes
//     only its own steps' buffers, sampling regions run serially in region
//     order to preserve the traced rng stream, and buffer releases happen
//     at stage barriers on the orchestrating thread;
//   * the backward schedule is the reversed depth-first post-order of the
//     requires-grad subgraph (ag::detail::TopoSortGradGraph — the same
//     routine Var::Backward uses), pruned to nodes that actually carry a
//     backward kernel, so replayed gradient accumulation is ordered
//     bit-identically to traced Backward(). Fusion never absorbs a node the
//     backward schedule touches (only gradient-free nodes fuse), and the
//     backward schedule always runs serially;
//   * liveness analysis computes, once, the last step at which every
//     intermediate value/gradient can be read; replays release buffers at
//     those points, recycling them through the tensor pool instead of
//     re-growing a fresh tape every step.
//
// Replaying swaps new input data into the captured feed leaves (located by
// buffer identity at capture time) and re-executes the schedules — no node
// allocation, no shared_ptr churn, no topological sort, no closure
// dispatch. Traced and replayed steps are bit-identical by construction:
// same per-element arithmetic, same gradient accumulation paths, and
// per-element results independent of fusion and of region parallelism
// (the simd.h lane-independence contract).
//
// Switches (one in-process setter per alternate path, for A/B tests and
// benches):
//   SetPlanMode(false) — no capture/replay at all (eager tracing);
//   SetFuseMode(false) — capture without the fusion rewrites.
// Consumers snapshot both at capture/session setup via SnapshotPlanModes(),
// so a mid-run toggle can never produce a half-planned epoch or a
// half-fused session. Region replay has no switch: a forward replay runs
// the staged region schedule whenever the calling thread could dispatch to
// the worker pool (more than one pool thread, not inside a parallel
// region), and the serial per-step loop otherwise — which frees each
// buffer right after its last use. Fleet shard workers (ScopedSerialRegion)
// and 1-thread pools therefore replay serially.

#ifndef STWA_IR_PLAN_H_
#define STWA_IR_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "autograd/var.h"
#include "ir/op_kind.h"
#include "ir/regions.h"

namespace stwa {
namespace ir {

/// Structural summary of a captured plan.
struct PlanStats {
  /// Every node recorded during capture (leaves + ops), before rewriting.
  int64_t captured_nodes = 0;
  /// Op nodes re-executed per forward replay (after fusion rewrites).
  int64_t forward_ops = 0;
  /// Backward kernel invocations per replay (after pruning subgraphs whose
  /// gradients cannot reach a parameter).
  int64_t backward_ops = 0;
  /// Forward ops whose backward never runs (pruned from the grad graph).
  int64_t pruned_ops = 0;
  /// Sum of all op-node value bytes — what a traced step keeps alive in
  /// its tape until the step ends. Baseline for peak_live_bytes.
  int64_t tape_value_bytes = 0;
  /// Analytic peak of live intermediate value + gradient bytes across one
  /// serial replay, per the liveness schedule. Upper bound: aliased buffers
  /// (reshape/detach) are counted once per node.
  int64_t peak_live_bytes = 0;
  /// Intermediate buffers released (and pool-recycled) per replay.
  int64_t released_buffers = 0;

  // --- Rewrite passes (ir/rewrite.h) ---
  /// Fused elementwise-chain nodes emitted.
  int64_t fused_map_nodes = 0;
  /// Fused attention-quad nodes emitted.
  int64_t fused_attention_nodes = 0;
  /// Forward steps removed by fusion (captured ops minus replacements).
  int64_t fused_away_ops = 0;

  // --- Region schedule (ir/regions.h) ---
  /// Dependency-closed regions in the rewritten forward schedule.
  int64_t regions = 0;
  /// Dependency depth of the region graph.
  int64_t region_stages = 0;
  /// Most regions sharing one stage — the replay parallelism ceiling.
  int64_t max_stage_width = 0;
};

/// One consumer-visible snapshot of the plan switches. Taken once per
/// capture scope / session so every decision downstream of it agrees.
struct PlanModes {
  bool plan = true;
  bool fuse = true;
};

/// A frozen forward(+backward) schedule over a captured graph. Created by
/// GraphCapture::Finish; replayed many times with swapped feed data.
class ExecutionPlan {
 public:
  /// Copies `feeds` into the captured feed leaves (same shapes as at
  /// capture), re-executes the forward schedule, seeds the root gradient
  /// and re-executes the backward schedule. Returns the loss (root value).
  /// Parameter gradients are accumulated exactly as a traced
  /// loss.Backward() would; the caller still runs ZeroGrad/clip/step.
  float ReplayTrainStep(const std::vector<Tensor>& feeds);

  /// Forward-only replay (plans captured with with_backward=false);
  /// returns the root's recomputed value.
  const Tensor& ReplayForward(const std::vector<Tensor>& feeds);

  /// True when the plan carries a backward schedule.
  bool with_backward() const { return with_backward_; }

  /// Structural summary (computed once at capture).
  const PlanStats& stats() const { return stats_; }

  /// Compact structural fingerprint of the region schedule — every region's
  /// stage, dependencies and step kinds in region order. Two captures of
  /// the same graph shape produce the same signature (determinism tests).
  std::string RegionSignature() const;

  /// Read-only view of the rewritten forward schedule (tests and the
  /// benchmark harness inspect fused-node composition through this).
  const std::vector<ag::Node*>& forward_steps() const { return forward_; }

  /// Captured feed leaves, in the order Finish() received them.
  const std::vector<ag::Node*>& feed_nodes() const { return feed_nodes_; }

  /// Every node recorded by the capture (plan analyses walk leaves too).
  const std::vector<ag::NodePtr>& nodes() const { return nodes_; }

  /// The plan's output node.
  ag::Node* root_node() const { return root_.get(); }

  /// Excludes `keep` from every release list, so those nodes' values
  /// survive across replays (forward-only plans). The time-slice serving
  /// path retains window-invariant steps (computed once, reused every
  /// call) and sliced frontier steps (harvested into the stream cache
  /// after each cold replay). Idempotent; never applies to plans with a
  /// backward schedule (gradient liveness must stay exact).
  void RetainValues(const std::vector<ag::Node*>& keep);

  /// Forward-only serial replay that executes only the steps whose
  /// `execute[i]` is nonzero (parallel to forward_steps()). Skipped steps
  /// keep whatever value their node already holds — the caller guarantees
  /// it is current (retained invariant values, cache-spliced sliced
  /// values). Every release list still runs, so buffer lifetimes match
  /// the serial schedule; releasing a never-computed node just clears an
  /// empty tensor. Returns the root's value.
  const Tensor& ReplayForwardMasked(const std::vector<Tensor>& feeds,
                                    const std::vector<uint8_t>& execute);

 private:
  friend class GraphCapture;
  ExecutionPlan() = default;

  void BindFeeds(const std::vector<Tensor>& feeds);
  /// Region schedule when RegionParModeEnabled(), serial loop otherwise.
  void RunForward();
  /// Per-step forward in schedule order, each release right after its
  /// step; with `execute`, runs only the steps it marks nonzero.
  void RunForwardSerial(const std::vector<uint8_t>* execute);
  /// Stage-by-stage forward: sampling regions serially, then the stage's
  /// remaining regions on the worker pool, then the stage's releases.
  void RunForwardRegions();
  /// Replays one region's steps in schedule order (no releases).
  void ExecuteRegion(int64_t region);
  void RunBackward();

  /// Keeps every captured node alive (schedules hold raw pointers).
  std::vector<ag::NodePtr> nodes_;
  ag::NodePtr root_;
  std::vector<ag::Node*> feed_nodes_;
  bool with_backward_ = false;

  /// Op nodes in creation (= eager execution) order, after fusion rewrites.
  std::vector<ag::Node*> forward_;
  /// Reversed topo order over the requires-grad subgraph, pruned to nodes
  /// with backward kernels.
  std::vector<ag::Node*> backward_;

  /// Region partition of forward_ and its stage grouping
  /// (stage_regions_[s] = region indices of stage s, ascending).
  RegionSchedule regions_;
  std::vector<std::vector<int64_t>> stage_regions_;

  /// release_after_forward_[i]: nodes whose buffers are dead once
  /// forward_[i] has executed (likewise for backward steps). Releasing
  /// clears value and grad; leaves, feeds and the root are never listed.
  std::vector<std::vector<ag::Node*>> release_after_forward_;
  std::vector<std::vector<ag::Node*>> release_after_backward_;
  /// The forward releases regrouped by the owning step's region stage —
  /// the region-parallel replay frees buffers only at stage barriers, so
  /// no concurrent region can observe a release.
  std::vector<std::vector<ag::Node*>> release_after_stage_;

  PlanStats stats_;
};

/// RAII recording scope. Construct, trace one step eagerly (build the loss
/// or prediction as usual), then Finish() to freeze a plan. If the scope
/// dies without Finish(), the recording is discarded. The fuse switch is
/// snapshotted at construction, so a toggle between tracing and Finish()
/// cannot split one plan across modes.
class GraphCapture {
 public:
  GraphCapture();
  /// Uses a caller-held switch snapshot instead of re-reading the globals
  /// (serving snapshots once at session open and passes it to every
  /// capture of that session).
  explicit GraphCapture(PlanModes modes);
  ~GraphCapture();

  GraphCapture(const GraphCapture&) = delete;
  GraphCapture& operator=(const GraphCapture&) = delete;

  /// Freezes the recording into a plan. `root` is the traced step's output
  /// (scalar loss for with_backward, prediction otherwise); `feeds` are
  /// the input tensors whose data will be swapped on replay, matched to
  /// captured leaves by buffer identity. Returns nullptr when the capture
  /// cannot be planned (a feed's buffer was copied rather than wrapped, or
  /// the root was created outside the capture) — callers fall back to
  /// eager tracing.
  std::unique_ptr<ExecutionPlan> Finish(const ag::Var& root,
                                        const std::vector<Tensor>& feeds,
                                        bool with_backward);

 private:
  bool finished_ = false;
  PlanModes modes_;
};

/// True when plan capture/replay is globally enabled: the default, unless
/// SetPlanMode(false) was called.
bool PlanModeEnabled();

/// The in-process plan switch (A/B tests and benches).
void SetPlanMode(bool enabled);

/// True when the fusion rewrite passes run at capture: the default, unless
/// SetFuseMode(false) was called.
bool FuseModeEnabled();

/// The in-process fusion switch.
void SetFuseMode(bool enabled);

/// Read-only report of the region-replay rule for the calling thread: true
/// when the worker pool has more than one thread and the caller is not
/// inside a parallel region (runtime::detail::ShouldParallelize). A
/// forward replay then runs the staged region schedule; otherwise it runs
/// serially. Serial and region replays are bit-identical. Change the
/// outcome with runtime::SetNumThreads or runtime::ScopedSerialRegion.
bool RegionParModeEnabled();

/// Reads both switches at once. Trainer and serving snapshot this at
/// setup and never consult the globals again, so every capture and replay
/// of one run agrees on the modes.
PlanModes SnapshotPlanModes();

}  // namespace ir
}  // namespace stwa

#endif  // STWA_IR_PLAN_H_
