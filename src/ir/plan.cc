#include "ir/plan.h"

#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "ir/capture.h"
#include "ir/registry.h"
#include "ir/rewrite.h"
#include "runtime/parallel.h"

namespace stwa {
namespace ir {
namespace {

using ag::Node;
using ag::NodePtr;

int64_t ValueBytes(const Node* n) {
  return n->value.size() * static_cast<int64_t>(sizeof(float));
}

bool g_plan_mode = true;
bool g_fuse_mode = true;

}  // namespace

bool PlanModeEnabled() { return g_plan_mode; }

void SetPlanMode(bool enabled) { g_plan_mode = enabled; }

bool FuseModeEnabled() { return g_fuse_mode; }

void SetFuseMode(bool enabled) { g_fuse_mode = enabled; }

bool RegionParModeEnabled() {
  return runtime::detail::ShouldParallelize(/*range=*/2, /*grain=*/1);
}

PlanModes SnapshotPlanModes() {
  return {PlanModeEnabled(), FuseModeEnabled()};
}

// --- GraphCapture ---------------------------------------------------------

GraphCapture::GraphCapture() : GraphCapture(SnapshotPlanModes()) {}

GraphCapture::GraphCapture(PlanModes modes) : modes_(modes) {
  detail::BeginCapture();
}

GraphCapture::~GraphCapture() {
  if (!finished_) detail::EndCapture();  // discard the recording
}

std::unique_ptr<ExecutionPlan> GraphCapture::Finish(
    const ag::Var& root, const std::vector<Tensor>& feeds,
    bool with_backward) {
  STWA_CHECK(!finished_, "GraphCapture::Finish called twice");
  finished_ = true;
  STWA_CHECK(root.defined(), "Finish() with an undefined root");

  std::unique_ptr<ExecutionPlan> plan(new ExecutionPlan());
  plan->nodes_ = detail::EndCapture();
  plan->root_ = root.node();
  plan->with_backward_ = with_backward;

  // The root must be a computation recorded in this capture, otherwise a
  // replay cannot recompute it.
  if (plan->root_->kind == OpKind::kLeaf) return nullptr;
  bool root_recorded = false;
  for (const NodePtr& n : plan->nodes_) {
    if (n.get() == plan->root_.get()) {
      root_recorded = true;
      break;
    }
  }
  if (!root_recorded) return nullptr;
  if (with_backward && !plan->root_->requires_grad) return nullptr;

  // Locate feed leaves by buffer identity: wrapping a batch tensor in a
  // Var shares its buffer, so the leaf whose value aliases the feed is the
  // node replays must copy fresh data into.
  for (const Tensor& feed : feeds) {
    Node* found = nullptr;
    for (const NodePtr& n : plan->nodes_) {
      if (n->kind == OpKind::kLeaf && !n->value.empty() &&
          n->value.data() == feed.data()) {
        found = n.get();
        break;
      }
    }
    if (found == nullptr) return nullptr;
    plan->feed_nodes_.push_back(found);
  }

  // Forward schedule: recorded ops in creation order == eager order.
  for (const NodePtr& n : plan->nodes_) {
    if (n->kind != OpKind::kLeaf) plan->forward_.push_back(n.get());
  }

  // Backward schedule: identical ordering to Var::Backward — reversed
  // depth-first post-order over the requires-grad subgraph, keeping only
  // nodes that dispatch a backward kernel (interior ops; leaves are
  // accumulation targets, not steps).
  if (with_backward) {
    std::vector<Node*> order;
    ag::detail::TopoSortGradGraph(plan->root_, order);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      if (Kernel((*it)->kind).backward != nullptr) {
        plan->backward_.push_back(*it);
      }
    }
  }

  // Fusion rewrites (after the backward schedule is frozen: only nodes
  // outside it are fusible, and rewriting never touches it). captured_nodes
  // reports the pre-rewrite recording.
  plan->stats_.captured_nodes = static_cast<int64_t>(plan->nodes_.size());
  if (modes_.fuse) {
    const RewriteStats rw =
        ApplyFusionPasses(plan->nodes_, plan->forward_, plan->root_.get());
    plan->stats_.fused_map_nodes = rw.fused_map_nodes;
    plan->stats_.fused_attention_nodes = rw.fused_attention_nodes;
    plan->stats_.fused_away_ops = rw.fused_away_ops;
  }

  // Region partition of the rewritten schedule (always built — it feeds
  // stats and the signature even when replays stay serial).
  plan->regions_ = BuildRegionSchedule(plan->forward_);
  plan->stage_regions_.assign(
      static_cast<size_t>(plan->regions_.num_stages), {});
  for (size_t r = 0; r < plan->regions_.regions.size(); ++r) {
    plan->stage_regions_[static_cast<size_t>(plan->regions_.regions[r].stage)]
        .push_back(static_cast<int64_t>(r));
  }
  plan->stats_.regions = static_cast<int64_t>(plan->regions_.regions.size());
  plan->stats_.region_stages = plan->regions_.num_stages;
  plan->stats_.max_stage_width = plan->regions_.max_stage_width;

  const int64_t F = static_cast<int64_t>(plan->forward_.size());
  const int64_t B = static_cast<int64_t>(plan->backward_.size());
  plan->release_after_forward_.assign(plan->forward_.size(), {});
  plan->release_after_backward_.assign(plan->backward_.size(), {});

  // --- Liveness: last step at which each op node's buffers are read. ----
  // Timeline: forward steps [0, F), then backward steps [F, F+B).
  std::unordered_map<Node*, int64_t> last_use;
  std::unordered_map<Node*, int64_t> forward_step;
  for (int64_t i = 0; i < F; ++i) {
    Node* n = plan->forward_[i];
    forward_step[n] = i;
    last_use[n] = i;  // produced here
    for (const NodePtr& p : n->parents) {
      auto it = last_use.find(p.get());
      if (it != last_use.end()) it->second = i;  // read by this op
    }
  }
  for (int64_t j = 0; j < B; ++j) {
    Node* m = plan->backward_[j];
    const int64_t step = F + j;
    // m's own backward reads m.grad and (EnsureGrad / y-based kernels)
    // m.value.
    last_use[m] = step;
    const bool reads_parents = Kernel(m->kind).backward_reads_parents;
    for (const NodePtr& p : m->parents) {
      auto it = last_use.find(p.get());
      if (it == last_use.end()) continue;  // leaf — never released anyway
      // Parent data/shape reads by the kernel itself, plus the
      // AccumulateGrad shape check for gradient-receiving parents.
      if (reads_parents || p->requires_grad) it->second = step;
    }
  }

  // Nodes whose buffers survive every replay: leaves (parameters,
  // constants, feeds — not scheduled, so absent from last_use) and the
  // root (the plan's output; its grad is the backward seed).
  for (auto& [node, last] : last_use) {
    if (node == plan->root_.get()) continue;
    if (last < F) {
      plan->release_after_forward_[last].push_back(node);
    } else {
      plan->release_after_backward_[last - F].push_back(node);
    }
    ++plan->stats_.released_buffers;
  }

  // The region-parallel replay defers each forward release to the barrier
  // of the LAST stage any consumer runs in. The last-use *slot* is not
  // enough: stages do not respect slot order across regions, so a buffer's
  // final reader in schedule order can run an earlier stage than another
  // reader (release there and the later-stage reader sees a freed buffer).
  // Iterating slots in ascending order keeps the release order
  // deterministic.
  {
    std::vector<int64_t> step_stage(plan->forward_.size(), 0);
    for (const Region& region : plan->regions_.regions) {
      for (int64_t i : region.steps) {
        step_stage[static_cast<size_t>(i)] = region.stage;
      }
    }
    std::unordered_map<Node*, int64_t> release_stage;
    release_stage.reserve(plan->forward_.size());
    for (int64_t i = 0; i < F; ++i) {
      Node* n = plan->forward_[i];
      const int64_t s = step_stage[static_cast<size_t>(i)];
      auto bump = [&](Node* m) {
        auto [it, inserted] = release_stage.try_emplace(m, s);
        if (!inserted && s > it->second) it->second = s;
      };
      bump(n);
      for (const NodePtr& p : n->parents) {
        if (forward_step.count(p.get())) bump(p.get());
      }
    }
    plan->release_after_stage_.assign(
        static_cast<size_t>(plan->regions_.num_stages), {});
    for (int64_t i = 0; i < F; ++i) {
      for (Node* node : plan->release_after_forward_[i]) {
        plan->release_after_stage_[static_cast<size_t>(release_stage.at(node))]
            .push_back(node);
      }
    }
  }

  // --- Stats -------------------------------------------------------------
  plan->stats_.forward_ops = F;
  plan->stats_.backward_ops = B;
  for (Node* n : plan->forward_) {
    plan->stats_.tape_value_bytes += ValueBytes(n);
  }
  {
    std::unordered_set<Node*> scheduled(plan->backward_.begin(),
                                        plan->backward_.end());
    for (Node* n : plan->forward_) {
      if (scheduled.find(n) == scheduled.end()) ++plan->stats_.pruned_ops;
    }
  }

  // Analytic peak of live intermediate bytes across one serial replay,
  // walking the same timeline the replay executes. Gradient buffers are
  // charged when first accumulated into (a consumer's backward for parents,
  // the node's own step for the root seed).
  {
    int64_t live = 0;
    int64_t peak = 0;
    std::unordered_set<Node*> grad_live;
    auto release = [&](const std::vector<Node*>& list) {
      for (Node* r : list) {
        live -= ValueBytes(r);
        if (grad_live.erase(r) > 0) live -= ValueBytes(r);
      }
    };
    for (int64_t i = 0; i < F; ++i) {
      live += ValueBytes(plan->forward_[i]);
      if (live > peak) peak = live;
      release(plan->release_after_forward_[i]);
    }
    for (int64_t j = 0; j < B; ++j) {
      Node* m = plan->backward_[j];
      if (grad_live.insert(m).second) live += ValueBytes(m);
      for (const NodePtr& p : m->parents) {
        if (p != nullptr && p->requires_grad && p->kind != OpKind::kLeaf &&
            grad_live.insert(p.get()).second) {
          live += ValueBytes(p.get());
        }
      }
      if (live > peak) peak = live;
      release(plan->release_after_backward_[j]);
    }
    plan->stats_.peak_live_bytes = peak;
  }

  // The capture step's traced Backward() left gradients on the op nodes;
  // a replay must start from empty intermediate grads exactly like every
  // later replay does (the liveness releases clear them at the end of each
  // replay, but the capture step ran without releases). Leaves keep theirs:
  // parameter gradient lifecycle belongs to the caller.
  for (Node* n : plan->forward_) n->grad = Tensor();
  return plan;
}

// --- ExecutionPlan --------------------------------------------------------

void ExecutionPlan::BindFeeds(const std::vector<Tensor>& feeds) {
  STWA_CHECK(feeds.size() == feed_nodes_.size(), "plan expects ",
             feed_nodes_.size(), " feeds, got ", feeds.size());
  for (size_t i = 0; i < feeds.size(); ++i) {
    Tensor& dst = feed_nodes_[i]->value;
    STWA_CHECK(feeds[i].size() == dst.size(),
               "feed ", i, " size mismatch: plan captured ",
               ShapeToString(dst.shape()), ", got ",
               ShapeToString(feeds[i].shape()));
    if (feeds[i].data() != dst.data()) dst.CopyDataFrom(feeds[i]);
  }
}

void ExecutionPlan::ExecuteRegion(int64_t region) {
  for (int64_t i : regions_.regions[static_cast<size_t>(region)].steps) {
    Node* n = forward_[i];
    n->value = Kernel(n->kind).forward(*n);
  }
}

void ExecutionPlan::RunForwardRegions() {
  std::vector<int64_t> par;  // this stage's pool-eligible regions
  for (size_t s = 0; s < stage_regions_.size(); ++s) {
    par.clear();
    for (int64_t r : stage_regions_[s]) {
      if (regions_.regions[static_cast<size_t>(r)].has_rng) {
        // Sampling regions run here, serially, in ascending region order —
        // which is capture order — so the rng streams advance exactly as
        // they did during tracing regardless of pool scheduling.
        ExecuteRegion(r);
      } else {
        par.push_back(r);
      }
    }
    runtime::RunRegions(static_cast<int64_t>(par.size()),
                        [&](int64_t k) { ExecuteRegion(par[k]); });
    // Stage barrier passed: every region that may read a buffer released
    // here has completed. Releases stay on the orchestrating thread.
    for (Node* r : release_after_stage_[s]) {
      r->value = Tensor();
      r->grad = Tensor();
    }
  }
}

void ExecutionPlan::RunForward() {
  if (RegionParModeEnabled()) {
    RunForwardRegions();
  } else {
    RunForwardSerial(nullptr);
  }
}

void ExecutionPlan::RunForwardSerial(const std::vector<uint8_t>* execute) {
  const size_t count = forward_.size();
  for (size_t i = 0; i < count; ++i) {
    if (execute == nullptr || (*execute)[i]) {
      Node* n = forward_[i];
      n->value = Kernel(n->kind).forward(*n);
    }
    for (Node* r : release_after_forward_[i]) {
      r->value = Tensor();
      r->grad = Tensor();
    }
  }
}

void ExecutionPlan::RunBackward() {
  const size_t count = backward_.size();
  for (size_t j = 0; j < count; ++j) {
    Node* n = backward_[j];
    n->EnsureGrad();
    Kernel(n->kind).backward(*n);
    for (Node* r : release_after_backward_[j]) {
      r->value = Tensor();
      r->grad = Tensor();
    }
  }
}

float ExecutionPlan::ReplayTrainStep(const std::vector<Tensor>& feeds) {
  STWA_CHECK(with_backward_, "ReplayTrainStep on a forward-only plan");
  BindFeeds(feeds);
  RunForward();
  const float loss = root_->value.item();
  root_->EnsureGrad();
  root_->grad.Fill(1.0f);
  RunBackward();
  return loss;
}

const Tensor& ExecutionPlan::ReplayForward(const std::vector<Tensor>& feeds) {
  STWA_CHECK(!with_backward_,
             "ReplayForward is reserved for forward-only plans (their "
             "liveness schedule frees buffers during the forward pass)");
  BindFeeds(feeds);
  RunForward();
  return root_->value;
}

void ExecutionPlan::RetainValues(const std::vector<ag::Node*>& keep) {
  STWA_CHECK(!with_backward_,
             "RetainValues is reserved for forward-only plans (training "
             "liveness must stay exact)");
  std::unordered_set<Node*> kept(keep.begin(), keep.end());
  auto filter = [&](std::vector<Node*>& list) {
    size_t w = 0;
    for (Node* n : list) {
      if (kept.find(n) == kept.end()) list[w++] = n;
    }
    list.resize(w);
  };
  for (auto& list : release_after_forward_) filter(list);
  for (auto& list : release_after_stage_) filter(list);
}

const Tensor& ExecutionPlan::ReplayForwardMasked(
    const std::vector<Tensor>& feeds, const std::vector<uint8_t>& execute) {
  STWA_CHECK(!with_backward_,
             "ReplayForwardMasked is reserved for forward-only plans");
  STWA_CHECK(execute.size() == forward_.size(),
             "execute mask covers ", execute.size(), " steps, plan has ",
             forward_.size());
  BindFeeds(feeds);
  RunForwardSerial(&execute);
  return root_->value;
}

std::string ExecutionPlan::RegionSignature() const {
  std::string out;
  for (size_t r = 0; r < regions_.regions.size(); ++r) {
    const Region& region = regions_.regions[r];
    out += "r" + std::to_string(r) + "@s" + std::to_string(region.stage);
    if (!region.deps.empty()) {
      out += "<";
      for (size_t d = 0; d < region.deps.size(); ++d) {
        if (d > 0) out += ",";
        out += std::to_string(region.deps[d]);
      }
      out += ">";
    }
    out += "(";
    for (size_t i = 0; i < region.steps.size(); ++i) {
      if (i > 0) out += ",";
      out += OpKindName(forward_[region.steps[i]]->kind);
    }
    out += ");";
  }
  return out;
}

}  // namespace ir
}  // namespace stwa
