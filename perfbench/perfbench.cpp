// The repository benchmark: three workloads of the CHAOS runtime on one
// P = 2 virtual machine, timed op by op from the host, every op's result
// checked against a serial oracle that shares no code with the runtime.
// README.md records why each workload was chosen and which per-layer metric
// should move which end-to-end metric.
//
//   perfbench --workload <mesh_rebuild|mesh_adapt|forall_vm> --seed <n>
//             [--seconds <s>] [--trace 0|1] [--ops <n>] [--setups <n>]
//             [--trace-out <csv>]
//
// Each op is one Machine::run, so the machine's per-run statistics and
// virtual clocks are exactly that op's. Output: an "info" line, a
// "fingerprint" line (every deterministic field, compared across runs by
// run.py) and, last, the result object. With --trace 1 each layer call the
// benchmark makes is wrapped in a span (wall, virtual clock, allocations)
// kept in per-rank buffers sized before the first op; traced and untraced
// ops alternate in pairs so the run also measures its own overhead.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "alloc_count.hpp"
#include "core/forall.hpp"
#include "core/geocol.hpp"
#include "core/mapper.hpp"
#include "core/plan_options.hpp"
#include "dist/darray.hpp"
#include "lang/interp.hpp"
#include "lang/parser.hpp"
#include "rt/machine.hpp"
#include "workload/mesh.hpp"
#include "workload/rng.hpp"

namespace rt = chaos::rt;
namespace dist = chaos::dist;
namespace core = chaos::core;
namespace lang = chaos::lang;
namespace wl = chaos::wl;
using chaos::f64;
using chaos::i64;
using chaos::u64;

namespace {

using Clock = std::chrono::steady_clock;

/// Two ranks leave the host's other cores free: rank threads meet at
/// barriers, so one stalled vCPU stalls the whole op (README.md).
constexpr int kProcs = 2;
/// Sweeps per op of mesh_adapt, and FORALL sweeps of the forall_vm program.
constexpr int kSweeps = 20;
/// Ops run after set-up but before the timed ops; their results are still
/// checked. The first kWarmOps ops are never timed.
constexpr i64 kWarmOps = 2;
/// The two ops after warm-up form the deterministic window: modeled times
/// and counts are read from them (one op of each direction on mesh_adapt).
constexpr i64 kWindowOps = 2;
/// At least 100 timed ops, so the 90th percentile has ten ops beyond it.
constexpr i64 kMinTimedOps = 100;
/// Where a workload can repeat its set-up between ops, it does so before
/// every kResampleEvery-th timed op.
constexpr i64 kResampleEvery = 8;
/// Upper bound on ops per run; the span buffers are sized for it.
constexpr i64 kMaxOps = 4096;

f64 ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<f64, std::milli>(b - a).count();
}

f64 median(std::vector<f64> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
f64 percentile(std::vector<f64> v, f64 q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<f64>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// op_ms_p90 of a run: the 90th percentile of each consecutive block of
/// kMinTimedOps or more timed ops, median over the blocks. Every block
/// leaves at least ten ops beyond its percentile, and a host stall confined
/// to fewer than half of the blocks does not reach the result.
f64 blocked_p90(const std::vector<f64>& wall) {
  const std::size_t n = wall.size();
  const std::size_t blocks =
      std::max<std::size_t>(1, n / static_cast<std::size_t>(kMinTimedOps));
  std::vector<f64> p90s;
  for (std::size_t b = 0; b < blocks; ++b) {
    p90s.push_back(percentile({wall.begin() + static_cast<std::ptrdiff_t>(
                                                  n * b / blocks),
                               wall.begin() + static_cast<std::ptrdiff_t>(
                                                  n * (b + 1) / blocks)},
                              0.9));
  }
  return median(p90s);
}

// --- spans -------------------------------------------------------------------

enum Layer : int {
  kIterPartition,
  kApplyRemap,
  kLocalize,
  kRepair,
  kExecute,
  kRcb,
  kRedistribute,
  kLangInstance,
  kLangExecute,
  kLayerCount
};
constexpr const char* kLayerName[kLayerCount] = {
    "core.iter_partition", "dist.apply_remap", "core.localize",
    "core.repair",         "core.execute",     "partition.rcb",
    "core.redistribute",   "lang.instance",    "lang.execute"};

/// One timed call into a layer. Set-up calls carry op = -1 - setup index.
struct Span {
  i64 op = 0;
  Layer layer = kLayerCount;
  f64 wall_ms = 0.0;
  f64 virt_ms = 0.0;
  long long allocs = 0;
};

/// A rank's span buffer, reserved before the first op. A full buffer drops
/// spans (and says so) rather than allocate inside a timed region.
struct RankTrace {
  std::vector<Span> spans;
  i64 dropped = 0;
};

/// Stamps wall time, the rank's virtual clock and its allocation count
/// around one call. A null trace makes it a no-op (the untraced path).
class SpanScope {
 public:
  SpanScope(RankTrace* trace, rt::Process& p, i64 op, Layer layer)
      : trace_(trace), p_(&p), op_(op), layer_(layer) {
    if (trace_ == nullptr) return;
    allocs0_ = perfbench::thread_allocs();
    virt0_ = p.clock().now_us();
    wall0_ = Clock::now();
  }
  ~SpanScope() {
    if (trace_ == nullptr) return;
    const auto wall1 = Clock::now();
    const f64 virt1 = p_->clock().now_us();
    const long long allocs1 = perfbench::thread_allocs();
    if (trace_->spans.size() == trace_->spans.capacity()) {
      ++trace_->dropped;
      return;
    }
    trace_->spans.push_back({op_, layer_, ms_between(wall0_, wall1),
                             (virt1 - virt0_) * 1e-3, allocs1 - allocs0_});
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  RankTrace* trace_;
  rt::Process* p_;
  i64 op_;
  Layer layer_;
  Clock::time_point wall0_{};
  f64 virt0_ = 0.0;
  long long allocs0_ = 0;
};

// --- inputs and the serial oracle --------------------------------------------

/// A generated mesh plus integer-valued node data: with values in [1, 7]
/// every product and partial sum of the kernels below is an exact integer,
/// so the distributed result must equal the serial one bit for bit.
struct MeshInput {
  wl::Mesh mesh;
  std::vector<f64> x;
};

MeshInput make_input(i64 nx, i64 ny, i64 nz, u64 seed) {
  MeshInput in{wl::make_tet_mesh(nx, ny, nz, seed), {}};
  in.x.resize(static_cast<std::size_t>(in.mesh.nnodes));
  for (i64 g = 0; g < in.mesh.nnodes; ++g) {
    in.x[static_cast<std::size_t>(g)] = static_cast<f64>(
        1 + wl::splitmix64(seed * 0x100000001b3ull + static_cast<u64>(g)) % 7);
  }
  return in;
}

f64 kernel_f(f64 a, f64 b) { return a * b; }
f64 kernel_g(f64 a, f64 b) { return a - b; }

/// The oracle: @p sweeps edge sweeps y(e1) += x1*x2, y(e2) += x1-x2 with
/// plain vector loops, starting from y = 0.
std::vector<f64> serial_sweeps(const std::vector<f64>& x,
                               const std::vector<i64>& e1,
                               const std::vector<i64>& e2, int sweeps) {
  std::vector<f64> y(x.size(), 0.0);
  for (int s = 0; s < sweeps; ++s) {
    for (std::size_t e = 0; e < e1.size(); ++e) {
      const f64 a = x[static_cast<std::size_t>(e1[e])];
      const f64 b = x[static_cast<std::size_t>(e2[e])];
      y[static_cast<std::size_t>(e1[e])] += kernel_f(a, b);
      y[static_cast<std::size_t>(e2[e])] += kernel_g(a, b);
    }
  }
  return y;
}

/// Receives a checksum of every timed serial sweep, so none is optimised
/// away.
volatile f64 g_sweep_sink = 0.0;

/// Median wall time of one serial sweep: the single-threaded baseline.
f64 serial_sweep_ms(const MeshInput& in) {
  std::vector<f64> samples;
  f64 checksum = 0.0;
  for (int k = 0; k < 7; ++k) {
    const auto t0 = Clock::now();
    const auto y = serial_sweeps(in.x, in.mesh.edge1, in.mesh.edge2, 1);
    samples.push_back(ms_between(t0, Clock::now()));
    for (const f64 v : y) checksum += v;
  }
  g_sweep_sink = checksum;
  return median(samples);
}

bool same_bits(f64 a, f64 b) {
  return std::bit_cast<u64>(a) == std::bit_cast<u64>(b);
}

std::vector<i64> slice(const dist::Distribution& d,
                       const std::vector<i64>& global) {
  std::vector<i64> out(static_cast<std::size_t>(d.my_local_size()));
  for (i64 l = 0; l < d.my_local_size(); ++l) {
    out[static_cast<std::size_t>(l)] =
        global[static_cast<std::size_t>(d.my_global_of(l))];
  }
  return out;
}

// --- shared mesh set-up ------------------------------------------------------

/// GeoCoL + RCB + REDISTRIBUTE of x and y, the set-up every workload shares.
struct PartitionedMesh {
  std::shared_ptr<const dist::Distribution> data;
  std::unique_ptr<dist::DistributedArray<f64>> x, y;
};

PartitionedMesh partition_mesh(rt::Process& p, const MeshInput& in,
                               RankTrace* trace, i64 tag) {
  auto reg = dist::Distribution::block(p, in.mesh.nnodes);
  PartitionedMesh out;
  out.x = std::make_unique<dist::DistributedArray<f64>>(p, reg);
  out.x->fill_by_global(
      [&](i64 g) { return in.x[static_cast<std::size_t>(g)]; });
  out.y = std::make_unique<dist::DistributedArray<f64>>(p, reg, 0.0);
  std::vector<f64> xc, yc, zc;
  for (i64 l = 0; l < reg->my_local_size(); ++l) {
    const auto g = static_cast<std::size_t>(reg->my_global_of(l));
    xc.push_back(in.mesh.x[g]);
    yc.push_back(in.mesh.y[g]);
    zc.push_back(in.mesh.z[g]);
  }
  {
    SpanScope s(trace, p, tag, kRcb);
    core::GeoColBuilder builder(p, reg);
    const std::span<const f64> coords[] = {xc, yc, zc};
    builder.geometry(coords);
    const auto geocol = builder.build();
    out.data = core::set_by_partitioning(p, *geocol, "RCB");
  }
  {
    SpanScope s(trace, p, tag, kRedistribute);
    core::Redistributor rd;
    rd.add(*out.x).add(*out.y);
    rd.apply(p, out.data);
  }
  return out;
}

/// Edge cut and imbalance of the data distributions the ranks hold.
void partition_quality(const MeshInput& in,
                       const std::vector<const dist::Distribution*>& per_rank,
                       f64& edge_cut, f64& imbalance) {
  std::vector<int> owner(static_cast<std::size_t>(in.mesh.nnodes), -1);
  i64 largest = 0;
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    const auto mine = per_rank[r]->my_globals();
    largest = std::max<i64>(largest, static_cast<i64>(mine.size()));
    for (const i64 g : mine) {
      owner[static_cast<std::size_t>(g)] = static_cast<int>(r);
    }
  }
  i64 cut = 0;
  for (std::size_t e = 0; e < in.mesh.edge1.size(); ++e) {
    cut += owner[static_cast<std::size_t>(in.mesh.edge1[e])] !=
           owner[static_cast<std::size_t>(in.mesh.edge2[e])];
  }
  edge_cut = static_cast<f64>(cut);
  imbalance = static_cast<f64>(largest) * kProcs /
              static_cast<f64>(in.mesh.nnodes);
}

// --- workloads ---------------------------------------------------------------

/// Named figures: an op's modeled time and counters, or set-up figures.
using Fields = std::map<std::string, f64>;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Edges swept per op (edges x sweeps), for edges_per_s.
  [[nodiscard]] virtual f64 edges_per_op() const = 0;
  /// Upper bound on spans one rank records per op.
  [[nodiscard]] virtual i64 spans_per_op() const = 0;
  [[nodiscard]] virtual int default_setups() const { return 15; }
  /// Wall ms of one lang::compile per set-up, for workloads that compile.
  [[nodiscard]] virtual std::vector<f64> compile_ms() const { return {}; }
  /// One complete set-up from the generated inputs, replacing the previous
  /// one; returns its wall seconds.
  virtual f64 setup(rt::Machine& m, std::vector<RankTrace>* traces,
                    i64 rep) = 0;
  /// One more set-up sample between ops, in seconds, for a workload whose
  /// set-up leaves the next op's work unchanged; negative if it has none.
  virtual f64 resample_setup(rt::Machine& /*m*/) { return -1.0; }
  /// Host-side, untimed: readies the state op @p op starts from.
  virtual void prepare(i64 /*op*/) {}
  /// The op itself, on every rank.
  virtual void body(rt::Process& p, i64 op, RankTrace* trace) = 0;
  /// Untimed, after the op: compares the result with the oracle and reports
  /// workload counters. Returns false if the op failed.
  virtual bool check(rt::Machine& m, i64 op, Fields& fields) = 0;
  /// Set-up-time fields (partition quality).
  virtual void setup_fields(Fields& fields) = 0;
  [[nodiscard]] virtual f64 serial_ms() const = 0;
};

/// One set of edge endpoint arrays (global node ids).
struct EdgeState {
  std::vector<i64> e1, e2;
};

/// The two rewired states of mesh_adapt. A and B rewire the same ~3% of
/// edges: one endpoint of each chosen edge moves to another neighbour of
/// itself (a local edge flip, as refinement makes), to a different one in A
/// and in B. Every A<->B epoch therefore changes the same endpoints.
std::vector<EdgeState> rewired_states(const wl::Mesh& m, u64 seed) {
  const auto n = static_cast<std::size_t>(m.nnodes);
  std::vector<i64> start(n + 1, 0), nbr(2 * m.edge1.size());
  for (std::size_t e = 0; e < m.edge1.size(); ++e) {
    ++start[static_cast<std::size_t>(m.edge1[e]) + 1];
    ++start[static_cast<std::size_t>(m.edge2[e]) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) start[v + 1] += start[v];
  std::vector<i64> fill(start.begin(), start.end() - 1);
  for (std::size_t e = 0; e < m.edge1.size(); ++e) {
    const auto a = static_cast<std::size_t>(m.edge1[e]);
    const auto b = static_cast<std::size_t>(m.edge2[e]);
    nbr[static_cast<std::size_t>(fill[a]++)] = m.edge2[e];
    nbr[static_cast<std::size_t>(fill[b]++)] = m.edge1[e];
  }
  std::vector<EdgeState> states(2, EdgeState{m.edge1, m.edge2});
  wl::Rng rng(seed ^ 0xada97e5eedull);
  for (std::size_t e = 0; e < m.edge1.size(); ++e) {
    if (rng.below(100) >= 3) continue;
    const bool move_second = rng.below(2) == 1;
    const i64 keep = move_second ? m.edge1[e] : m.edge2[e];
    const i64 moving = move_second ? m.edge2[e] : m.edge1[e];
    const i64 lo = start[static_cast<std::size_t>(moving)];
    const i64 deg = start[static_cast<std::size_t>(moving) + 1] - lo;
    i64 pick[2] = {-1, -1};
    for (int tries = 0; tries < 16 && pick[1] < 0; ++tries) {
      const i64 w = nbr[static_cast<std::size_t>(lo + rng.below(deg))];
      if (w == keep) continue;
      if (pick[0] < 0) {
        pick[0] = w;
      } else if (w != pick[0]) {
        pick[1] = w;
      }
    }
    if (pick[1] < 0) continue;
    for (std::size_t s = 0; s < 2; ++s) {
      (move_second ? states[s].e2 : states[s].e1)[e] = pick[s];
    }
  }
  return states;
}

/// mesh_rebuild and mesh_adapt: the 53K mesh, RCB-partitioned in set-up.
/// mesh_rebuild has one edge state, the mesh itself. mesh_adapt has two,
/// A and B, and op k runs on state k % 2. Set-up inspects the last state,
/// so every mesh_adapt op is one A<->B epoch of the same size.
class MeshWorkload : public Workload {
 public:
  MeshWorkload(u64 seed, bool adapt)
      : adapt_(adapt), sweeps_(adapt ? kSweeps : 1) {
    in_ = make_input(38, 38, 37, seed);
    states_ = adapt ? rewired_states(in_.mesh, seed)
                    : std::vector<EdgeState>{{in_.mesh.edge1, in_.mesh.edge2}};
    for (const EdgeState& st : states_) {
      ref_.push_back(serial_sweeps(in_.x, st.e1, st.e2, sweeps_));
    }
    serial_ms_ = serial_sweep_ms(in_);
  }

  f64 edges_per_op() const override {
    return static_cast<f64>(in_.mesh.nedges) * sweeps_;
  }
  i64 spans_per_op() const override { return 3 + sweeps_; }
  f64 serial_ms() const override { return serial_ms_; }

  f64 setup(rt::Machine& m, std::vector<RankTrace>* traces,
            i64 rep) override {
    for (Rank& r : ranks_) r = Rank{};
    const auto t0 = Clock::now();
    m.run([&](rt::Process& p) {
      Rank& r = ranks_[static_cast<std::size_t>(p.rank())];
      RankTrace* trace =
          traces ? &(*traces)[static_cast<std::size_t>(p.rank())] : nullptr;
      r.edges = dist::Distribution::block(p, in_.mesh.nedges);
      for (const EdgeState& st : states_) {
        r.slices.push_back({slice(*r.edges, st.e1), slice(*r.edges, st.e2)});
      }
      r.mesh = partition_mesh(p, in_, trace, -1 - rep);
      r.plan = core::EdgeReductionLoop::inspect(
          p, *r.edges, r.slices.back().e1, r.slices.back().e2, *r.mesh.data,
          core::IterRule::MostLocalReferences, core::PlanOptions{});
    });
    const f64 seconds = ms_between(t0, Clock::now()) * 1e-3;
    for (Rank& r : ranks_) r.globals = r.mesh.data->my_globals();
    return seconds;
  }

  void prepare(i64 /*op*/) override {
    for (Rank& r : ranks_) {
      std::fill(r.mesh.y->local().begin(), r.mesh.y->local().end(), 0.0);
    }
  }

  void body(rt::Process& p, i64 op, RankTrace* trace) override {
    Rank& r = ranks_[static_cast<std::size_t>(p.rank())];
    const EdgeState& st = r.slices[state_of(op)];
    if (adapt_) {
      {
        SpanScope span(trace, p, op, kRepair);
        r.repaired = core::EdgeReductionLoop::repair(p, *r.plan, st.e1, st.e2,
                                                      *r.mesh.data);
      }
      if (!r.repaired) {  // keeps the result checkable; the op still fails
        r.plan = core::EdgeReductionLoop::inspect(
            p, *r.edges, st.e1, st.e2, *r.mesh.data,
            core::IterRule::MostLocalReferences, core::PlanOptions{});
      }
    } else {
      inspect_by_hand(p, r, st, trace, op);
    }
    for (int k = 0; k < sweeps_; ++k) {
      SpanScope span(trace, p, op, kExecute);
      core::EdgeReductionLoop::execute(p, *r.plan, *r.mesh.x, *r.mesh.y,
                                       kernel_f, kernel_g);
    }
  }

  bool check(rt::Machine& m, i64 op, Fields& fields) override {
    const std::vector<f64>& ref = ref_[state_of(op)];
    bool ok = true;
    for (const Rank& r : ranks_) {
      const auto y = r.mesh.y->local();
      for (std::size_t l = 0; l < y.size(); ++l) {
        ok = ok && same_bits(y[l], ref[static_cast<std::size_t>(r.globals[l])]);
      }
      ok = ok && (!adapt_ || r.repaired);
    }
    const rt::MessageStats st = m.total_stats();
    ok = ok && st.repair_fallbacks == 0 &&
         (adapt_ ? st.schedule_repairs > 0 : st.schedule_repairs == 0);
    // Translation-table counters are cumulative: report this op's share.
    const auto [queries, wire] = locate_totals();
    fields["dist.locate_queries"] = static_cast<f64>(queries - last_queries_);
    fields["dist.locate_wire_queries"] = static_cast<f64>(wire - last_wire_);
    last_queries_ = queries;
    last_wire_ = wire;
    return ok;
  }

  void setup_fields(Fields& fields) override {
    std::vector<const dist::Distribution*> dists;
    for (const Rank& r : ranks_) dists.push_back(r.mesh.data.get());
    partition_quality(in_, dists, fields["partition.edge_cut"],
                      fields["partition.imbalance"]);
    std::tie(last_queries_, last_wire_) = locate_totals();
  }

 private:
  struct Rank {
    std::shared_ptr<const dist::Distribution> edges;
    std::vector<EdgeState> slices;  ///< this rank's slice of each state
    PartitionedMesh mesh;
    std::shared_ptr<core::EdgeLoopPlan> plan;
    std::vector<i64> globals;  ///< data-distribution globals, for the oracle
    bool repaired = false;
  };

  [[nodiscard]] std::size_t state_of(i64 op) const {
    return static_cast<std::size_t>(op) % states_.size();
  }

  /// Locate queries and wire queries so far, summed over the ranks' tables.
  [[nodiscard]] std::pair<i64, i64> locate_totals() const {
    i64 queries = 0, wire = 0;
    for (const Rank& r : ranks_) {
      const auto& st = r.mesh.data->table()->stats();
      queries += st.queries + st.flat_queries;
      wire += st.wire_queries + st.flat_wire_queries;
    }
    return {queries, wire};
  }

  /// The no-reuse re-inspection into the retained plan, by the public calls
  /// of the hand pipeline: iteration partition, two indirection remaps, one
  /// shared localize.
  static void inspect_by_hand(rt::Process& p, Rank& r, const EdgeState& st,
                              RankTrace* trace, i64 op) {
    core::EdgeLoopPlan& plan = *r.plan;
    plan.build.begin_build();
    const std::span<const i64> batches[] = {st.e1, st.e2};
    {
      SpanScope span(trace, p, op, kIterPartition);
      plan.iters = core::partition_iterations(p, *r.edges, *r.mesh.data,
                                              batches);
    }
    {
      SpanScope span(trace, p, op, kApplyRemap);
      plan.end1 = dist::apply_remap<i64>(p, plan.iters.remap, st.e1);
      plan.end2 = dist::apply_remap<i64>(p, plan.iters.remap, st.e2);
    }
    {
      SpanScope span(trace, p, op, kLocalize);
      const std::span<const i64> remapped[] = {plan.end1, plan.end2};
      core::localize_many(p, *r.mesh.data, remapped, plan.iws, plan.loc);
    }
    plan.build.mark_built();
  }

  bool adapt_;
  int sweeps_;
  MeshInput in_;
  std::vector<EdgeState> states_;
  std::vector<std::vector<f64>> ref_;  ///< oracle result per state
  f64 serial_ms_ = 0.0;
  Rank ranks_[kProcs];
  i64 last_queries_ = 0, last_wire_ = 0;
};

/// forall_vm: the Figure 4 program on the 10K mesh, compiled in set-up and
/// run end to end (lowering, binding, execution) by every op.
class ForallWorkload : public Workload {
 public:
  explicit ForallWorkload(u64 seed) {
    in_ = make_input(22, 22, 22, seed);
    e1_ = in_.mesh.edge1;
    e2_ = in_.mesh.edge2;
    for (auto& v : e1_) v += 1;  // Fortran subscripts are 1-based
    for (auto& v : e2_) v += 1;
    ref_ = serial_sweeps(in_.x, in_.mesh.edge1, in_.mesh.edge2, kSweeps);
    serial_ms_ = serial_sweep_ms(in_);
    source_ =
        "      REAL*8 x(nnode), y(nnode)\n"
        "      REAL*8 xc(nnode), yc(nnode), zc(nnode)\n"
        "      INTEGER end_pt1(nedge), end_pt2(nedge)\n"
        "C$    DYNAMIC, DECOMPOSITION reg(nnode), reg2(nedge)\n"
        "C$    DISTRIBUTE reg(BLOCK), reg2(BLOCK)\n"
        "C$    ALIGN x, y, xc, yc, zc WITH reg\n"
        "C$    ALIGN end_pt1, end_pt2 WITH reg2\n"
        "C$    CONSTRUCT G (nnode, GEOMETRY(3, xc, yc, zc))\n"
        "C$    SET distfmt BY PARTITIONING G USING RCB\n"
        "C$    REDISTRIBUTE reg(distfmt)\n"
        "      DO step = 1, " + std::to_string(kSweeps) + "\n"
        "      FORALL i = 1, nedge\n"
        "        REDUCE(ADD, y(end_pt1(i)), x(end_pt1(i)) * x(end_pt2(i)))\n"
        "        REDUCE(ADD, y(end_pt2(i)), x(end_pt1(i)) - x(end_pt2(i)))\n"
        "      END FORALL\n"
        "      END DO\n";
  }

  f64 edges_per_op() const override {
    return static_cast<f64>(in_.mesh.nedges) * kSweeps;
  }
  i64 spans_per_op() const override { return 2; }
  int default_setups() const override { return kPartitionProbes; }
  std::vector<f64> compile_ms() const override { return compile_ms_; }
  f64 serial_ms() const override { return serial_ms_; }

  /// The set-ups before the first op also run the partition layer by itself
  /// on the same mesh (untimed), so the traced run can attribute the RCB
  /// share of each op.
  f64 setup(rt::Machine& m, std::vector<RankTrace>* traces,
            i64 rep) override {
    const f64 seconds = resample_setup(m);
    if (rep < kPartitionProbes) {
      m.run([&](rt::Process& p) {
        RankTrace* trace =
            traces ? &(*traces)[static_cast<std::size_t>(p.rank())] : nullptr;
        probe_[static_cast<std::size_t>(p.rank())] =
            partition_mesh(p, in_, trace, -1 - rep);
      });
    }
    return seconds;
  }

  /// Set-up is lang::compile plus the program's first complete run, whose
  /// result is checked. A compile alone takes tens of microseconds and
  /// moves with the host's load far more than the rest of the benchmark,
  /// so it is timed as a batch of kCompileBatch compiles and counted once.
  /// Every op lowers the program afresh, so a set-up between ops changes
  /// nothing the next op does.
  f64 resample_setup(rt::Machine& m) override {
    for (auto& inst : insts_) inst.reset();
    const auto t0 = Clock::now();
    for (int k = 0; k < kCompileBatch; ++k) {
      program_ = std::make_unique<lang::Program>(lang::compile(source_));
    }
    const auto t1 = Clock::now();
    m.run([&](rt::Process& p) { body(p, -1, nullptr); });
    const f64 compile = ms_between(t0, t1) / kCompileBatch;
    const f64 seconds = (compile + ms_between(t1, Clock::now())) * 1e-3;
    compile_ms_.push_back(compile);
    Fields unused;
    if (!check(m, -1, unused)) {
      throw std::runtime_error("set-up run disagrees with the serial oracle");
    }
    return seconds;
  }

  void prepare(i64 /*op*/) override {
    for (auto& inst : insts_) inst.reset();
  }

  void body(rt::Process& p, i64 op, RankTrace* trace) override {
    auto& inst = insts_[static_cast<std::size_t>(p.rank())];
    {
      SpanScope span(trace, p, op, kLangInstance);
      inst = std::make_unique<lang::Instance>(*program_);
      inst->set_param("NNODE", in_.mesh.nnodes);
      inst->set_param("NEDGE", in_.mesh.nedges);
      inst->bind_real("X", in_.x);
      inst->bind_real("XC", in_.mesh.x);
      inst->bind_real("YC", in_.mesh.y);
      inst->bind_real("ZC", in_.mesh.z);
      inst->bind_int("END_PT1", e1_);
      inst->bind_int("END_PT2", e2_);
    }
    SpanScope span(trace, p, op, kLangExecute);
    inst->execute(p);
  }

  bool check(rt::Machine& m, i64 /*op*/, Fields& fields) override {
    const rt::MessageStats st = m.total_stats();
    bool ok = st.schedule_repairs == 0 && st.repair_fallbacks == 0;
    // Modeled phase times: the slowest rank's, in virtual ms.
    auto phase = [&](const char* name, f64 lang::PhaseTimes::*f) {
      f64 v = 0.0;
      for (const auto& inst : insts_) v = std::max(v, inst->phases().*f);
      fields[std::string("lang.phase_") + name + "_modeled_ms"] = v * 1e3;
    };
    phase("graph_gen", &lang::PhaseTimes::graph_gen);
    phase("partition", &lang::PhaseTimes::partition);
    phase("remap", &lang::PhaseTimes::remap);
    phase("inspector", &lang::PhaseTimes::inspector);
    phase("executor", &lang::PhaseTimes::executor);
    const auto& cs = insts_[0]->cache_stats();
    fields["lang.plan_cache_hits"] = static_cast<f64>(cs.hits);
    fields["lang.plan_cache_misses"] = static_cast<f64>(cs.misses);
    // The result, read back through the program's own array.
    std::vector<f64> y;
    m.run([&](rt::Process& p) {
      auto got =
          insts_[static_cast<std::size_t>(p.rank())]->fetch_real(p, "Y");
      if (p.is_root()) y = std::move(got);
    });
    ok = ok && y.size() == ref_.size();
    for (std::size_t g = 0; ok && g < y.size(); ++g) {
      ok = same_bits(y[g], ref_[g]);
    }
    return ok;
  }

  void setup_fields(Fields& fields) override {
    std::vector<const dist::Distribution*> dists;
    for (const auto& pm : probe_) dists.push_back(pm.data.get());
    partition_quality(in_, dists, fields["partition.edge_cut"],
                      fields["partition.imbalance"]);
  }

 private:
  static constexpr i64 kPartitionProbes = 5;
  static constexpr int kCompileBatch = 100;

  MeshInput in_;
  std::vector<i64> e1_, e2_;  ///< 1-based endpoint ids
  std::vector<f64> ref_;
  f64 serial_ms_ = 0.0;
  std::string source_;
  std::unique_ptr<lang::Program> program_;
  std::vector<f64> compile_ms_;
  std::unique_ptr<lang::Instance> insts_[kProcs];
  PartitionedMesh probe_[kProcs];
};

// --- harness -----------------------------------------------------------------

std::string fmt(f64 v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  f64 value;
  std::string unit;
};

struct Args {
  std::string workload;
  u64 seed = 1;
  f64 seconds = 10.0;
  bool trace = false;
  i64 fixed_ops = -1;  ///< exact op count (the determinism check run)
  int setups = -1;     ///< -1: the workload's default
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<mesh_rebuild|mesh_adapt|forall_vm> --seed <n> [--seconds "
               "<s>] [--trace 0|1] [--ops <n>] [--setups <n>] [--trace-out "
               "<csv>]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--ops") {
      a.fixed_ops = std::stoll(v);
    } else if (k == "--setups") {
      a.setups = std::stoi(v);
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage("unknown option " + k);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.fixed_ops > kMaxOps) usage("--ops exceeds the span buffer bound");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "mesh_rebuild" || a.workload == "mesh_adapt") {
    return std::make_unique<MeshWorkload>(a.seed, a.workload == "mesh_adapt");
  }
  if (a.workload == "forall_vm") {
    return std::make_unique<ForallWorkload>(a.seed);
  }
  usage("unknown workload " + a.workload);
}

/// Per-op record taken by the host after each op.
struct OpRecord {
  f64 wall_ms = 0.0;
  f64 wait_ms = 0.0;  ///< last rank's finish minus the first rank's
  bool traced = false;
  Fields det;  ///< deterministic fields: modeled time and counts
};

struct Measurement {
  std::vector<f64> setup_s;
  Fields setup_fields;
  std::vector<OpRecord> ops;
  i64 attempted = 0;
  i64 failed = 0;
};

/// Runs the set-ups, then ops until both --seconds and kMinTimedOps are
/// reached (or exactly --ops ops), with the set-up resampled between ops
/// where the workload allows it. Traced runs trace ops in alternate
/// pairs: ops 2,3 (the window) are traced, 4,5 not, 6,7 traced, and so on,
/// so the untraced pairs give the tracing overhead within the same run.
Measurement measure(Workload& w, const Args& a, int setups,
                    std::vector<RankTrace>& traces) {
  Measurement m;
  rt::Machine machine(kProcs);
  for (int s = 0; s < setups; ++s) {
    m.setup_s.push_back(w.setup(machine, a.trace ? &traces : nullptr, s));
  }
  w.setup_fields(m.setup_fields);

  std::vector<long long> rank_allocs(kProcs, 0);
  std::vector<Clock::time_point> rank_finish(kProcs);
  i64 op = 0;
  bool traced = false;
  const std::function<void(rt::Process&)> body = [&](rt::Process& p) {
    const auto r = static_cast<std::size_t>(p.rank());
    const long long allocs0 = perfbench::thread_allocs();
    w.body(p, op, traced ? &traces[r] : nullptr);
    rank_allocs[r] = perfbench::thread_allocs() - allocs0;
    rank_finish[r] = Clock::now();
  };

  m.ops.reserve(static_cast<std::size_t>(kMaxOps));
  const auto start = Clock::now();
  for (op = 0;; ++op) {
    if (a.fixed_ops >= 0 ? op >= a.fixed_ops
                         : op >= kMaxOps ||
                               (op - kWarmOps >= kMinTimedOps &&
                                ms_between(start, Clock::now()) >=
                                    a.seconds * 1e3)) {
      break;
    }
    if (op >= kWarmOps && op % kResampleEvery == 0) {
      if (const f64 s = w.resample_setup(machine); s >= 0.0) {
        m.setup_s.push_back(s);
      }
    }
    w.prepare(op);
    traced = a.trace && (op / 2) % 2 == 1;
    ++m.attempted;
    OpRecord rec;
    rec.traced = traced;
    const auto t0 = Clock::now();
    try {
      machine.run(body);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: op %lld threw: %s\n",
                   static_cast<long long>(op), e.what());
      ++m.failed;
      break;
    }
    rec.wall_ms = ms_between(t0, Clock::now());
    const auto [first, last] =
        std::minmax_element(rank_finish.begin(), rank_finish.end());
    rec.wait_ms = ms_between(*first, *last);

    const rt::MessageStats st = machine.total_stats();
    rec.det["modeled_ms"] = machine.max_virtual_time_us() * 1e-3;
    rec.det["rt.alltoallv_calls"] = static_cast<f64>(st.alltoallv_calls);
    rec.det["rt.alltoallv_bytes"] = static_cast<f64>(st.alltoallv_bytes);
    rec.det["rt.collectives"] = static_cast<f64>(st.collectives);
    rec.det["rt.barriers"] = static_cast<f64>(st.barriers);
    rec.det["rt.messages_sent"] = static_cast<f64>(st.messages_sent);
    rec.det["rt.bytes_sent"] = static_cast<f64>(st.bytes_sent);
    rec.det["core.schedule_repairs"] = static_cast<f64>(st.schedule_repairs);
    rec.det["core.repair_fallbacks"] = static_cast<f64>(st.repair_fallbacks);
    long long allocs = 0;
    for (const long long n : rank_allocs) allocs += n;
    rec.det["allocs_per_op"] = static_cast<f64>(allocs);
    const bool healthy = st.faults_injected == 0 && st.timeouts == 0 &&
                         st.poisoned_waits == 0 &&
                         machine.recover_report().dirty_shards.empty();
    if (!(w.check(machine, op, rec.det) && healthy)) ++m.failed;
    m.ops.push_back(std::move(rec));
  }
  return m;
}

/// Determinism self-test within a run: every op after warm-up repeats the
/// op two before it exactly (mesh_adapt alternates two kinds of epoch).
bool stationary(const std::vector<OpRecord>& ops) {
  bool ok = true;
  for (std::size_t k = kWarmOps + 2; k < ops.size(); ++k) {
    for (const auto& [key, v] : ops[k].det) {
      const f64 before = ops[k - 2].det.at(key);
      if (!same_bits(v, before)) {
        std::fprintf(stderr,
                     "perfbench: op %zu is not deterministic: %s = %.17g, op "
                     "%zu had %.17g\n",
                     k, key.c_str(), v, k - 2, before);
        ok = false;
      }
    }
  }
  return ok;
}

/// The deterministic fields: mean over the window ops, plus set-up fields.
Fields window_fields(const Measurement& m) {
  Fields window = m.setup_fields;
  for (i64 k = kWarmOps; k < kWarmOps + kWindowOps; ++k) {
    for (const auto& [key, v] : m.ops[static_cast<std::size_t>(k)].det) {
      window[key] += v / kWindowOps;
    }
  }
  return window;
}

/// Per-layer figures from the spans. Per (op, layer): the slowest rank's
/// wall and virtual time, and the ranks' summed allocations. core.execute
/// is per sweep; every other layer per op.
struct LayerStats {
  Fields wall;  ///< "<layer>_ms": median over timed ops (or set-ups)
  Fields det;   ///< "<layer>_modeled_ms", "<layer>_allocs": window mean
  i64 dropped = 0;
  bool stationary = true;  ///< every traced op's spans repeat op k - 4's
};

LayerStats aggregate_spans(const std::vector<RankTrace>& traces) {
  struct LayerOp {
    f64 wall[kProcs] = {};
    f64 virt[kProcs] = {};
    long long allocs = 0;
    i64 calls[kProcs] = {};
  };
  std::map<std::pair<int, i64>, LayerOp> per_op;  // (layer, op)
  LayerStats out;
  for (int r = 0; r < kProcs; ++r) {
    const RankTrace& t = traces[static_cast<std::size_t>(r)];
    out.dropped += t.dropped;
    for (const Span& s : t.spans) {
      LayerOp& lo = per_op[{s.layer, s.op}];
      lo.wall[r] += s.wall_ms;
      lo.virt[r] += s.virt_ms;
      lo.allocs += s.allocs;
      ++lo.calls[r];
    }
  }
  // Traced ops come in pairs every four ops, and mesh_adapt alternates two
  // kinds of op, so a traced op must repeat the virtual time, allocations
  // and call counts of the op four before it exactly.
  for (const auto& [key, lo] : per_op) {
    const auto before = per_op.find({key.first, key.second - 4});
    if (key.second < kWarmOps + 4 || before == per_op.end()) continue;
    const LayerOp& b = before->second;
    bool same = lo.allocs == b.allocs;
    for (int r = 0; r < kProcs; ++r) {
      same = same && same_bits(lo.virt[r], b.virt[r]) &&
             lo.calls[r] == b.calls[r];
    }
    if (!same) {
      std::fprintf(stderr,
                   "perfbench: %s spans of op %lld differ from op %lld's\n",
                   kLayerName[key.first], static_cast<long long>(key.second),
                   static_cast<long long>(key.second - 4));
      out.stationary = false;
    }
  }
  for (int l = 0; l < kLayerCount; ++l) {
    const std::string name = kLayerName[l];
    std::vector<f64> walls;
    f64 virt = 0.0, allocs = 0.0;
    for (const auto& [key, lo] : per_op) {
      if (key.first != l || (key.second >= 0 && key.second < kWarmOps)) {
        continue;
      }
      auto slowest = [&](const f64* v) {
        f64 m = 0.0;
        for (int r = 0; r < kProcs; ++r) {
          const f64 calls =
              l == kExecute ? static_cast<f64>(std::max<i64>(1, lo.calls[r]))
                            : 1.0;
          m = std::max(m, v[r] / calls);
        }
        return m;
      };
      walls.push_back(slowest(lo.wall));
      if (key.second >= kWarmOps && key.second < kWarmOps + kWindowOps) {
        const f64 calls =
            l == kExecute ? static_cast<f64>(std::max<i64>(1, lo.calls[0]))
                          : 1.0;
        virt += slowest(lo.virt) / kWindowOps;
        allocs += static_cast<f64>(lo.allocs) / calls / kWindowOps;
      }
    }
    out.wall[name + "_ms"] = median(walls);
    out.det[name + "_modeled_ms"] = virt;
    out.det[name + "_allocs"] = allocs;
  }
  return out;
}

void write_trace(const std::string& path,
                 const std::vector<RankTrace>& traces) {
  std::ofstream out(path);
  out << "rank,op,layer,wall_ms,virtual_ms,allocs\n";
  for (int r = 0; r < kProcs; ++r) {
    for (const Span& s : traces[static_cast<std::size_t>(r)].spans) {
      out << r << ',' << s.op << ',' << kLayerName[s.layer] << ','
          << fmt(s.wall_ms) << ',' << fmt(s.virt_ms) << ',' << s.allocs
          << '\n';
    }
  }
}

f64 peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<f64>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

f64 ratio(f64 num, f64 den) { return den > 0.0 ? num / den : 0.0; }

std::vector<Metric> end_to_end_metrics(const Workload& w, const Measurement& m,
                                       const Fields& window) {
  std::vector<f64> wall;
  for (std::size_t k = kWarmOps; k < m.ops.size(); ++k) {
    wall.push_back(m.ops[k].wall_ms);
  }
  const f64 p50 = median(wall);
  return {
      {"op_ms_p50", p50, "ms"},
      {"op_ms_p90", blocked_p90(wall), "ms"},
      {"edges_per_s", ratio(w.edges_per_op(), p50 * 1e-3), "1/s"},
      {"setup_s", median(m.setup_s), "s"},
      {"modeled_ms_per_op", window.at("modeled_ms"), "virtual_ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> layer_metrics(const Workload& w, const Measurement& m,
                                  const Fields& window,
                                  const LayerStats& layers) {
  auto field = [](const Fields& f, const std::string& k) {
    const auto it = f.find(k);
    return it == f.end() ? 0.0 : it->second;
  };
  auto win = [&](const std::string& k) { return field(window, k); };
  std::vector<f64> traced, untraced, waits;
  for (std::size_t k = kWarmOps; k < m.ops.size(); ++k) {
    (m.ops[k].traced ? traced : untraced).push_back(m.ops[k].wall_ms);
    waits.push_back(m.ops[k].wait_ms);
  }
  std::vector<Metric> out = {
      {"rt.alltoallv_calls", win("rt.alltoallv_calls"), "count"},
      {"rt.alltoallv_bytes", win("rt.alltoallv_bytes"), "bytes"},
      {"rt.collectives", win("rt.collectives"), "count"},
      {"rt.barriers", win("rt.barriers"), "count"},
      {"rt.wait_ms", median(waits), "ms"},
  };
  // Wall, modeled and allocation figures of each layer call.
  for (const char* layer :
       {"dist.apply_remap", "core.iter_partition", "core.localize",
        "core.repair", "core.execute"}) {
    const std::string n = layer;
    out.push_back({n + "_ms", field(layers.wall, n + "_ms"), "ms"});
    out.push_back(
        {n + "_modeled_ms", field(layers.det, n + "_modeled_ms"),
         "virtual_ms"});
    out.push_back({n + "_allocs", field(layers.det, n + "_allocs"), "count"});
  }
  const f64 repairs = win("core.schedule_repairs");
  const std::vector<f64> compile_ms = w.compile_ms();
  const f64 hits = win("lang.plan_cache_hits");
  const std::vector<Metric> rest = {
      {"dist.locate_queries", win("dist.locate_queries"), "count"},
      {"dist.locate_wire_queries", win("dist.locate_wire_queries"), "count"},
      {"core.repair_success_ratio",
       ratio(repairs, repairs + win("core.repair_fallbacks")), "ratio"},
      {"core.redistribute_ms", field(layers.wall, "core.redistribute_ms"),
       "ms"},
      {"partition.rcb_ms", field(layers.wall, "partition.rcb_ms"), "ms"},
      {"partition.edge_cut", win("partition.edge_cut"), "count"},
      {"partition.imbalance", win("partition.imbalance"), "ratio"},
      {"lang.compile_ms", median(compile_ms), "ms"},
      {"lang.instance_ms", field(layers.wall, "lang.instance_ms"), "ms"},
      {"lang.execute_ms", field(layers.wall, "lang.execute_ms"), "ms"},
      {"lang.phase_graph_gen_modeled_ms",
       win("lang.phase_graph_gen_modeled_ms"), "virtual_ms"},
      {"lang.phase_partition_modeled_ms",
       win("lang.phase_partition_modeled_ms"), "virtual_ms"},
      {"lang.phase_remap_modeled_ms", win("lang.phase_remap_modeled_ms"),
       "virtual_ms"},
      {"lang.phase_inspector_modeled_ms",
       win("lang.phase_inspector_modeled_ms"), "virtual_ms"},
      {"lang.phase_executor_modeled_ms",
       win("lang.phase_executor_modeled_ms"), "virtual_ms"},
      {"lang.plan_cache_hit_ratio",
       ratio(hits, hits + win("lang.plan_cache_misses")), "ratio"},
      {"allocs_per_op", win("allocs_per_op"), "count"},
      {"serial.sweep_ms", w.serial_ms(), "ms"},
      {"trace.overhead_ratio", ratio(median(traced), median(untraced)),
       "ratio"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string json_fields(const Fields& f) {
  std::string out = "{";
  for (const auto& [k, v] : f) {
    out += (out.size() > 1 ? ", \"" : "\"") + k + "\": " + fmt(v);
  }
  return out + "}";
}

int run(const Args& a) {
  // Inputs and the serial oracle are made here, before any timer starts.
  const std::unique_ptr<Workload> w = make_workload(a);
  const int setups = a.setups > 0 ? a.setups : w->default_setups();
  std::vector<RankTrace> traces(kProcs);
  if (a.trace) {
    for (auto& t : traces) {
      t.spans.reserve(static_cast<std::size_t>(
          kMaxOps * w->spans_per_op() + 4 * setups));
    }
  }
  const Measurement m = measure(*w, a, setups, traces);
  if (static_cast<i64>(m.ops.size()) < kWarmOps + kWindowOps) {
    std::fprintf(stderr, "perfbench: too few ops (%zu)\n", m.ops.size());
    return 3;
  }
  const Fields window = window_fields(m);
  const LayerStats layers = aggregate_spans(traces);
  const bool deterministic = stationary(m.ops) && layers.stationary;
  if (a.trace && !a.trace_out.empty()) write_trace(a.trace_out, traces);

  // The fingerprint: every field that must repeat byte for byte across
  // runs of one seed. run.py checks each field of the measured run against
  // a traced run, whose fingerprint also holds the per-layer fields.
  Fields fingerprint = window;
  if (a.trace) fingerprint.insert(layers.det.begin(), layers.det.end());

  std::size_t traced_ops = 0;
  for (const OpRecord& o : m.ops) traced_ops += o.traced;
  std::printf(
      "{\"info\": {\"workload\": \"%s\", \"seed\": %llu, \"procs\": %d, "
      "\"ops\": %zu, \"timed_ops\": %zu, \"traced_ops\": %zu, \"setups\": "
      "%d, \"spans_dropped\": %lld, \"nproc\": %u, \"compiler\": \"%s\", "
      "\"build\": \"%s\", \"flags\": \"%s\"}}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), kProcs,
      m.ops.size(), m.ops.size() - kWarmOps, traced_ops, setups,
      static_cast<long long>(layers.dropped),
      std::thread::hardware_concurrency(), json_escape(__VERSION__).c_str(),
      PERFBENCH_BUILD_TYPE, json_escape(PERFBENCH_CXX_FLAGS).c_str());
  std::printf("{\"fingerprint\": %s}\n", json_fields(fingerprint).c_str());
  if (!deterministic) return 3;

  const std::vector<Metric> metrics =
      a.trace ? layer_metrics(*w, m, window, layers)
              : end_to_end_metrics(*w, m, window);
  std::string out = "{\"correct\": ";
  out += m.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(m.attempted);
  out += ", \"failed\": " + std::to_string(m.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           fmt(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  std::printf("%s}}\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
