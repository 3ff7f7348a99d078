#include "serve/inference_session.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "autograd/no_grad.h"
#include "common/check.h"
#include "simd/gemm_lowp.h"
#include "tensor/lowp_cache.h"

namespace stwa {
namespace serve {
namespace {

/// Private copy of a window tensor — cache keys must never alias
/// caller-mutable staging.
Tensor CopyTensor(const Tensor& t) {
  Tensor c = Tensor::Uninit(t.shape());
  c.CopyDataFrom(t);
  return c;
}

}  // namespace

bool DatasetFreeModel(const std::string& name) {
  static const char* kNames[] = {"ST-WA", "S-WA",   "WA",    "WA-1",
                                 "Det-ST-WA", "ST-WA-mean", "GRU",
                                 "GRU+S", "GRU+ST", "ATT",   "SA",
                                 "ATT+S", "ATT+ST"};
  for (const char* n : kNames) {
    if (name == n) return true;
  }
  return false;
}

data::TrafficDataset StubDataset(const ServingInfo& info) {
  data::TrafficDataset dataset;
  dataset.name = "serving-stub";
  dataset.values =
      Tensor(Shape{info.num_sensors, 1, info.num_features});
  return dataset;
}

InferenceSession::InferenceSession(
    ServingInfo info, std::unique_ptr<train::ForecastModel> model,
    SessionConfig config)
    : info_(std::move(info)),
      scaler_(info_.scaler_mean, info_.scaler_std),
      model_(std::move(model)),
      config_(config),
      modes_(ir::SnapshotPlanModes()) {
  RegisterLowpWeights();
}

InferenceSession::~InferenceSession() {
  for (const float* key : lowp_keys_) lowp::Unregister(key);
}

void InferenceSession::RegisterLowpWeights() {
  if (config_.precision == simd::Precision::kFp32) return;
  for (const auto& [name, var] : model_->NamedParameters()) {
    const Tensor& t = var.value();
    if (t.rank() != 2) continue;
    const int64_t k = t.dim(0);
    const int64_t n = t.dim(1);
    if (k > (int64_t{1} << 16)) continue;  // outside the exact-i32 window
    const std::vector<float>* scales = nullptr;
    if (config_.precision == simd::Precision::kInt8) {
      const auto it = info_.int8_scales.find(name);
      if (it != info_.int8_scales.end()) {
        STWA_CHECK(static_cast<int64_t>(it->second.size()) == n,
                   "checkpoint bakes ", it->second.size(),
                   " int8 scales for '", name, "' but the parameter has ",
                   n, " output channels — the file is inconsistent");
        scales = &it->second;
      }
    }
    lowp::Register(t.data(),
                   simd::PackWeights(t.data(), k, n, /*trans=*/false,
                                     config_.precision, scales));
    lowp_keys_.push_back(t.data());
  }
}

std::unique_ptr<InferenceSession> InferenceSession::Open(
    const std::string& path, const SessionConfig& config) {
  ServingInfo info = ReadServingInfo(path);
  STWA_CHECK(DatasetFreeModel(info.model), "model '", info.model,
             "' needs its training dataset to rebuild graph supports; "
             "use InferenceSession::Open(path, dataset)");
  auto model =
      baselines::MakeModel(info.model, StubDataset(info), info.settings);
  nn::LoadParameters(*model, path);
  return std::unique_ptr<InferenceSession>(
      new InferenceSession(std::move(info), std::move(model), config));
}

std::unique_ptr<InferenceSession> InferenceSession::Open(
    const std::string& path, const data::TrafficDataset& dataset,
    const SessionConfig& config) {
  ServingInfo info = ReadServingInfo(path);
  STWA_CHECK(dataset.num_sensors() == info.num_sensors,
             "checkpoint expects ", info.num_sensors, " sensors, dataset has ",
             dataset.num_sensors());
  auto model = baselines::MakeModel(info.model, dataset, info.settings);
  nn::LoadParameters(*model, path);
  return std::unique_ptr<InferenceSession>(
      new InferenceSession(std::move(info), std::move(model), config));
}

Tensor InferenceSession::Forecast(const Tensor& raw_window) {
  const bool batched = raw_window.rank() == 4;
  STWA_CHECK(batched || raw_window.rank() == 3,
             "Forecast expects [B, N, H, F] or [N, H, F], got ",
             ShapeToString(raw_window.shape()));
  const int64_t n = info_.num_sensors;
  const int64_t h = info_.settings.history;
  const int64_t f = info_.num_features;
  Tensor window = batched
                      ? raw_window
                      : raw_window.Reshape({1, raw_window.dim(0),
                                            raw_window.dim(1),
                                            raw_window.dim(2)});
  STWA_CHECK(window.dim(1) == n && window.dim(2) == h && window.dim(3) == f,
             "window shape ", ShapeToString(raw_window.shape()),
             " does not match the checkpoint's [*, ", n, ", ", h, ", ", f,
             "]");

  // Inference-only: no gradient bookkeeping anywhere in the pass.
  ag::NoGradMode no_grad;
  Tensor pred_value;
  const int64_t batch = window.dim(0);
  // One snapshot (taken at session construction) gates both the lookup and
  // the capture: a global toggle between two calls can neither orphan a
  // cached plan nor capture into a session opened with plans off.
  auto it = modes_.plan ? plans_.find(batch) : plans_.end();
  if (modes_.plan && it == plans_.end()) {
    // First request at this batch size: trace eagerly while recording and
    // freeze a forward-only plan for every later request. The feed is a
    // fresh transform (not staging): the captured leaf pins its buffer
    // for the plan's lifetime.
    Tensor normalised = scaler_.Transform(window);
    ir::GraphCapture capture(modes_);
    ag::Var pred = model_->Forward(normalised, /*training=*/false);
    STWA_CHECK(!pred.node()->requires_grad,
               "InferenceSession forward built gradient state under "
               "NoGradMode");
    pred_value = pred.value();
    std::unique_ptr<ir::ExecutionPlan> plan =
        capture.Finish(pred, {normalised}, /*with_backward=*/false);
    if (batch == 1 && !stream_.analyzed) AnalyzeStreamPlan(plan.get());
    plans_.emplace(batch, std::move(plan));
  } else if (it != plans_.end() && it->second != nullptr) {
    scaler_.TransformInto(window, &norm_staging_);
    pred_value = it->second->ReplayForward({norm_staging_});
  } else {
    Tensor normalised = scaler_.Transform(window);
    ag::Var pred = model_->Forward(normalised, /*training=*/false);
    // The NoGradMode contract: every op result is a detached constant. A
    // violation here means some op bypassed the recording switch and the
    // session is silently paying autograd costs — fail loudly instead.
    STWA_CHECK(!pred.node()->requires_grad && pred.node()->parents.empty(),
               "InferenceSession forward built autograd state under "
               "NoGradMode");
    pred_value = pred.value();
  }
  ++forward_count_;
  scaler_.InverseTransformInto(pred_value, &out_staging_);
  Tensor out = out_staging_;
  if (!batched) {
    out = out.Reshape({out.dim(1), out.dim(2), out.dim(3)});
  }
  return out;
}

void InferenceSession::AnalyzeStreamPlan(ir::ExecutionPlan* plan) {
  stream_.analyzed = true;
  if (plan == nullptr) return;
  // Feed layout is [B, N, H, F]: the window (time) axis is 2.
  stream_.info = ir::AnalyzeTimeSlice(*plan, /*feed_index=*/0,
                                      /*time_axis=*/2);
  if (!stream_.info.feasible) return;
  stream_.columns = std::make_unique<ir::ColumnProgram>(*plan, stream_.info,
                                                        /*feed_index=*/0);
  if (!stream_.columns->ok()) {
    stream_.columns.reset();
    stream_.info.feasible = false;
    return;
  }
  plan->RetainValues(stream_.info.retain_nodes);
  const std::vector<ag::Node*>& steps = plan->forward_steps();
  stream_.frontier_shapes.clear();
  for (size_t i : stream_.info.frontier_steps) {
    stream_.frontier_shapes.push_back(steps[i]->value.shape());
  }
  stream_.all_mask.assign(steps.size(), 1);
  // The capture trace just computed every step, and retention keeps the
  // invariant values resident from here on.
  stream_.invariant_warm = true;
}

Tensor InferenceSession::ForecastStream(const Tensor& raw_window,
                                        int64_t stream_id, int64_t anchor,
                                        StreamCache* cache,
                                        uint64_t generation) {
  if (cache == nullptr || !modes_.plan || stream_id < 0) {
    if (cache != nullptr) cache->CountBypass();
    return Forecast(raw_window);
  }
  const bool batched = raw_window.rank() == 4;
  STWA_CHECK(batched || raw_window.rank() == 3,
             "ForecastStream expects [1, N, H, F] or [N, H, F], got ",
             ShapeToString(raw_window.shape()));
  const int64_t n = info_.num_sensors;
  const int64_t h = info_.settings.history;
  const int64_t f = info_.num_features;
  Tensor window = batched
                      ? raw_window
                      : raw_window.Reshape({1, raw_window.dim(0),
                                            raw_window.dim(1),
                                            raw_window.dim(2)});
  STWA_CHECK(window.dim(0) == 1 && window.dim(1) == n && window.dim(2) == h &&
                 window.dim(3) == f,
             "stream window shape ", ShapeToString(raw_window.shape()),
             " does not match the checkpoint's [1, ", n, ", ", h, ", ", f,
             "]");

  ag::NoGradMode no_grad;
  auto unbatch = [&](Tensor t) {
    return t.Reshape({t.dim(1), t.dim(2), t.dim(3)});
  };
  auto rebatch = [&](Tensor t) {
    return t.Reshape({1, t.dim(0), t.dim(1), t.dim(2)});
  };

  auto it = plans_.find(1);
  if (it == plans_.end()) {
    // First single-window request of this session: capture the plan, run
    // the time-slice analysis while the traced values are live, and
    // harvest those values as this stream's first cache entry — the trace
    // itself was a valid cold compute for this window.
    Tensor normalised = scaler_.Transform(window);
    ir::GraphCapture capture(modes_);
    ag::Var pred = model_->Forward(normalised, /*training=*/false);
    STWA_CHECK(!pred.node()->requires_grad,
               "InferenceSession forward built gradient state under "
               "NoGradMode");
    Tensor pred_value = pred.value();
    std::unique_ptr<ir::ExecutionPlan> plan =
        capture.Finish(pred, {normalised}, /*with_backward=*/false);
    ir::ExecutionPlan* p = plan.get();
    if (!stream_.analyzed) AnalyzeStreamPlan(p);
    plans_.emplace(1, std::move(plan));
    ++forward_count_;
    scaler_.InverseTransformInto(pred_value, &out_staging_);
    Tensor out = unbatch(out_staging_);
    if (p == nullptr || stream_.info.has_rng) {
      cache->CountBypass();
    } else {
      StreamCache::Entry e;
      e.anchor = anchor;
      e.generation = generation;
      e.precision = config_.precision;
      e.window = CopyTensor(window);
      e.output = out;
      if (stream_.info.feasible) {
        // Copied, not referenced: a frontier value can be a view of the
        // feed buffer (reshape), and BindFeeds memcpys the next replay's
        // window into that buffer in place — an aliased segment would be
        // silently rewritten by whichever stream replays next.
        const std::vector<ag::Node*>& steps = p->forward_steps();
        for (size_t i : stream_.info.frontier_steps) {
          e.segments.push_back(CopyTensor(steps[i]->value));
        }
      }
      cache->Update(stream_id, std::move(e));
      cache->CountMiss();
    }
    return batched ? rebatch(out) : out;
  }

  ir::ExecutionPlan* plan = it->second.get();
  if (plan == nullptr) {
    cache->CountBypass();
    return Forecast(raw_window);
  }
  // Plan created before any stream traffic (a plain Forecast): the
  // analysis runs now, but replays have already released the capture
  // values, so it degrades to output memoisation only.
  if (!stream_.analyzed) AnalyzeStreamPlan(plan);
  if (stream_.info.has_rng) {
    cache->CountBypass();
    return Forecast(raw_window);
  }

  StreamCache::Entry entry;
  const bool have =
      cache->Lookup(stream_id, generation, config_.precision, &entry);

  // Output hit: the same window answered before — anchor routes, bytes
  // decide.
  if (have && entry.anchor == anchor &&
      entry.window.size() == window.size() &&
      std::memcmp(entry.window.data(), window.data(),
                  static_cast<size_t>(window.size()) * sizeof(float)) == 0) {
    cache->CountOutputHit();
    Tensor out = entry.output;
    return batched ? rebatch(out) : out;
  }

  // Shift path: one step ahead of the entry, overlapping columns byte-
  // equal, segments shaped as this plan expects.
  bool shiftable = have && stream_.info.feasible && stream_.invariant_warm &&
                   entry.anchor + 1 == anchor &&
                   entry.window.shape() == window.shape() &&
                   entry.segments.size() == stream_.frontier_shapes.size() &&
                   !entry.segments.empty();
  for (size_t k = 0; shiftable && k < entry.segments.size(); ++k) {
    if (entry.segments[k].shape() != stream_.frontier_shapes[k]) {
      shiftable = false;
    }
  }
  if (shiftable) {
    const float* prev = entry.window.data();
    const float* cur = window.data();
    const int64_t sensor_block = h * f;
    bool overlap = true;
    for (int64_t s = 0; s < n && overlap; ++s) {
      overlap = std::memcmp(
                    prev + s * sensor_block + f, cur + s * sensor_block,
                    static_cast<size_t>((h - 1) * f) * sizeof(float)) == 0;
    }
    if (overlap) {
      scaler_.TransformInto(window, &norm_staging_);
      // Newest normalised column -> the sliced segment's shadow graph.
      Tensor feed_col = ir::SliceTimeColumn(norm_staging_, 2, h - 1);
      stream_.columns->Run(feed_col);
      // Splice each frontier value forward by one step and hand it to the
      // plan node, then replay only the window-global tail.
      const std::vector<ag::Node*>& steps = plan->forward_steps();
      for (size_t k = 0; k < stream_.info.frontier_steps.size(); ++k) {
        const size_t si = stream_.info.frontier_steps[k];
        Tensor seg = ir::ShiftAppendColumn(entry.segments[k],
                                           stream_.columns->FrontierColumn(k),
                                           stream_.info.step_axis[si]);
        steps[si]->value = seg;
        entry.segments[k] = std::move(seg);
      }
      Tensor pred_value =
          plan->ReplayForwardMasked({norm_staging_}, stream_.info.global_mask);
      ++forward_count_;
      scaler_.InverseTransformInto(pred_value, &out_staging_);
      Tensor out = unbatch(out_staging_);
      entry.anchor = anchor;
      entry.window = CopyTensor(window);
      entry.output = out;
      cache->Update(stream_id, std::move(entry));
      cache->CountShiftHit();
      return batched ? rebatch(out) : out;
    }
  }

  // Miss: full compute (window-invariant steps still skipped when the
  // analysis proved them) and refresh the entry.
  scaler_.TransformInto(window, &norm_staging_);
  Tensor pred_value;
  if (stream_.info.feasible) {
    const std::vector<uint8_t>& mask = stream_.invariant_warm
                                           ? stream_.info.non_invariant_mask
                                           : stream_.all_mask;
    pred_value = plan->ReplayForwardMasked({norm_staging_}, mask);
    stream_.invariant_warm = true;
  } else {
    pred_value = plan->ReplayForward({norm_staging_});
  }
  ++forward_count_;
  scaler_.InverseTransformInto(pred_value, &out_staging_);
  Tensor out = unbatch(out_staging_);
  StreamCache::Entry fresh;
  fresh.anchor = anchor;
  fresh.generation = generation;
  fresh.precision = config_.precision;
  fresh.window = CopyTensor(window);
  fresh.output = out;
  if (stream_.info.feasible) {
    // Copied for the same reason as the capture harvest above: frontier
    // views of the feed buffer are rewritten in place by the next
    // BindFeeds.
    const std::vector<ag::Node*>& steps = plan->forward_steps();
    for (size_t i : stream_.info.frontier_steps) {
      fresh.segments.push_back(CopyTensor(steps[i]->value));
    }
  }
  cache->Update(stream_id, std::move(fresh));
  cache->CountMiss();
  return batched ? rebatch(out) : out;
}

}  // namespace serve
}  // namespace stwa
