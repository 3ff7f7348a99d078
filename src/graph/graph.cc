#include "graph/graph.h"

#include <cmath>

#include "common/check.h"
#include "tensor/ops.h"

namespace stwa {
namespace graph {

SensorGraph::SensorGraph(int64_t num_nodes)
    : num_nodes_(num_nodes), adj_(num_nodes) {
  STWA_CHECK(num_nodes >= 0, "negative node count");
}

void SensorGraph::AddEdge(int64_t from, int64_t to, float weight) {
  STWA_CHECK(from >= 0 && from < num_nodes_ && to >= 0 && to < num_nodes_,
             "edge (", from, " -> ", to, ") out of range for ", num_nodes_,
             " nodes");
  adj_[from].push_back(Edge{to, weight});
}

void SensorGraph::AddUndirectedEdge(int64_t a, int64_t b, float weight) {
  AddEdge(a, b, weight);
  AddEdge(b, a, weight);
}

int64_t SensorGraph::num_edges() const {
  int64_t count = 0;
  for (const auto& edges : adj_) count += static_cast<int64_t>(edges.size());
  return count;
}

const std::vector<Edge>& SensorGraph::Neighbors(int64_t node) const {
  STWA_CHECK(node >= 0 && node < num_nodes_, "node ", node, " out of range");
  return adj_[node];
}

Tensor SensorGraph::DenseAdjacency() const {
  Tensor a(Shape{num_nodes_, num_nodes_});
  for (int64_t i = 0; i < num_nodes_; ++i) {
    for (const Edge& e : adj_[i]) {
      a({i, e.to}) = e.weight;
    }
  }
  return a;
}

Tensor SensorGraph::RandomWalkNormalized() const {
  Tensor a = DenseAdjacency();
  for (int64_t i = 0; i < num_nodes_; ++i) {
    float deg = 0.0f;
    for (int64_t j = 0; j < num_nodes_; ++j) deg += a({i, j});
    if (deg > 0.0f) {
      const float inv = 1.0f / deg;
      for (int64_t j = 0; j < num_nodes_; ++j) a({i, j}) *= inv;
    }
  }
  return a;
}

Tensor SensorGraph::SymNormalizedWithSelfLoops() const {
  Tensor a = DenseAdjacency();
  for (int64_t i = 0; i < num_nodes_; ++i) a({i, i}) += 1.0f;
  std::vector<float> inv_sqrt_deg(num_nodes_);
  for (int64_t i = 0; i < num_nodes_; ++i) {
    float deg = 0.0f;
    for (int64_t j = 0; j < num_nodes_; ++j) deg += a({i, j});
    inv_sqrt_deg[i] = deg > 0.0f ? 1.0f / std::sqrt(deg) : 0.0f;
  }
  for (int64_t i = 0; i < num_nodes_; ++i) {
    for (int64_t j = 0; j < num_nodes_; ++j) {
      a({i, j}) *= inv_sqrt_deg[i] * inv_sqrt_deg[j];
    }
  }
  return a;
}

Tensor SensorGraph::ScaledLaplacian() const {
  // L = I - D^-1/2 A D^-1/2 (symmetrised); approx lambda_max = 2 gives
  // L_scaled = L - I = -D^-1/2 A D^-1/2.
  Tensor sym = SymNormalizedWithSelfLoops();
  Tensor out(Shape{num_nodes_, num_nodes_});
  for (int64_t i = 0; i < num_nodes_; ++i) {
    for (int64_t j = 0; j < num_nodes_; ++j) {
      out({i, j}) = -sym({i, j});
    }
  }
  return out;
}

std::vector<Tensor> SensorGraph::DiffusionSupports(int64_t max_hops) const {
  STWA_CHECK(max_hops >= 1, "max_hops must be >= 1");
  std::vector<Tensor> supports;
  Tensor fwd = RandomWalkNormalized();
  // Reverse random walk: D_in^-1 A^T == random-walk normalisation of the
  // transposed graph.
  Tensor at = ops::TransposeLast2(DenseAdjacency());
  for (int64_t i = 0; i < num_nodes_; ++i) {
    float deg = 0.0f;
    for (int64_t j = 0; j < num_nodes_; ++j) deg += at({i, j});
    if (deg > 0.0f) {
      const float inv = 1.0f / deg;
      for (int64_t j = 0; j < num_nodes_; ++j) at({i, j}) *= inv;
    }
  }
  Tensor fwd_power = fwd;
  Tensor bwd_power = at;
  for (int64_t k = 1; k <= max_hops; ++k) {
    supports.push_back(fwd_power);
    supports.push_back(bwd_power);
    if (k < max_hops) {
      fwd_power = ops::MatMul(fwd_power, fwd);
      bwd_power = ops::MatMul(bwd_power, at);
    }
  }
  return supports;
}

SensorGraph BuildCorridorGraph(int64_t num_roads, int64_t sensors_per_road,
                               Rng& rng,
                               std::vector<int>* road_of_sensor) {
  STWA_CHECK(num_roads > 0 && sensors_per_road > 0,
             "corridor graph needs positive sizes");
  const int64_t n = num_roads * sensors_per_road;
  SensorGraph g(n);
  if (road_of_sensor != nullptr) {
    road_of_sensor->assign(n, 0);
  }
  for (int64_t r = 0; r < num_roads; ++r) {
    for (int64_t s = 0; s < sensors_per_road; ++s) {
      const int64_t node = r * sensors_per_road + s;
      if (road_of_sensor != nullptr) (*road_of_sensor)[node] = r;
      if (s + 1 < sensors_per_road) {
        // Strong links between consecutive sensors on the same road, with
        // slight weight jitter (distance-based in real PEMS graphs).
        g.AddUndirectedEdge(node, node + 1, rng.Uniform(0.8f, 1.0f));
      }
    }
  }
  // Weak inter-road links ("intersections"): connect a random sensor of
  // each road to a random sensor of the next road.
  for (int64_t r = 0; r + 1 < num_roads; ++r) {
    const int64_t a = r * sensors_per_road + rng.UniformInt(sensors_per_road);
    const int64_t b =
        (r + 1) * sensors_per_road + rng.UniformInt(sensors_per_road);
    g.AddUndirectedEdge(a, b, rng.Uniform(0.2f, 0.4f));
  }
  return g;
}

}  // namespace graph
}  // namespace stwa
