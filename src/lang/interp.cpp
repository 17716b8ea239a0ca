#include "lang/interp.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>

#include "dist/remap.hpp"
#include "lang/bytecode.hpp"
#include "lang/token.hpp"
#include "rt/collectives.hpp"

namespace chaos::lang {

namespace {

[[noreturn]] void sema_fail(const std::string& msg, int line) {
  throw LangError(msg, line);
}

}  // namespace

// ---------------------------------------------------------------------------
// Runtime state
// ---------------------------------------------------------------------------

struct ArrayInfo {
  ElemType type = ElemType::Real8;
  i64 size = -1;
  std::string decomp;
  int decl_line = 0;
  std::unique_ptr<dist::DistributedArray<f64>> real;
  std::unique_ptr<dist::DistributedArray<i64>> integer;

  [[nodiscard]] bool materialized() const {
    return real != nullptr || integer != nullptr;
  }
  [[nodiscard]] const dist::Distribution& dist() const {
    return real ? real->dist() : integer->dist();
  }
  [[nodiscard]] std::shared_ptr<const dist::Distribution> dist_ptr() const {
    return real ? real->dist_ptr() : integer->dist_ptr();
  }
  [[nodiscard]] const dist::Dad& dad() const { return dist().dad(); }
};

struct DecompInfo {
  i64 size = -1;
  int decl_line = 0;
  std::shared_ptr<const dist::Distribution> dist;
  std::vector<std::string> aligned;
};

/// Resolved runtime operand for the bytecode evaluator: set up once per
/// executor invocation, read per iteration.
struct RuntimeOperand {
  const i64* refs = nullptr;    // localized index per local iteration
  const f64* local = nullptr;   // owned segment of the array
  i64 nlocal = 0;
  const f64* ghost = nullptr;   // gathered off-process copies
};

/// Per-statement write routing, resolved against current storage at the top
/// of every COMPUTE (array storage can move between sweeps, the plan's
/// symbolic routing cannot).
struct WriteSlot {
  int refs_group = 0;  ///< 0: data_loc batch, 1: direct_loc, 2: own assign
  const std::vector<StackInstr>* code = nullptr;
  const i64* refs = nullptr;  // target localized indices
  f64* local = nullptr;       // assign: target local segment
  f64* staging = nullptr;     // assign: ghost staging / reduce: accumulator
  i64 nlocal = -1;            // assign boundary (-1 for reduces)
  core::ReduceOp rop = core::ReduceOp::Add;
};

/// Inspector product of one FORALL (cached under the Section 3 guard). Built
/// from the statement's lowered ForallMeta — never from the AST — so the
/// tree-walk oracle and the VM construct byte-identical plans.
struct LoopPlan {
  const ForallMeta* meta = nullptr;  ///< borrowed from the ProgramPlan

  std::shared_ptr<const dist::Distribution> iter_space;
  std::shared_ptr<const dist::Distribution> data_dist;  // may be null
  core::IterationPartition iters;
  /// My 0-based iteration ids, local order: a view of iters.iter_dist's
  /// own slice, materialized into iter_ids_scratch only for a regular one.
  std::span<const i64> iter_ids;
  std::vector<i64> iter_ids_scratch;

  std::vector<std::vector<i64>> ind_values;  ///< remapped, 0-based
  /// Pre-remap 0-based indirection slices at the last build/repair: the
  /// repair path diffs fresh slices against these so only changed values
  /// ride the remap (DESIGN.md §14).
  std::vector<std::vector<i64>> src_ind_values;
  core::LocalizedMany data_loc;              ///< one batch per ind array
  /// Repair baselines: the shared data schedule's, plus one per private
  /// assign schedule (unused entries stay invalid for direct assigns, whose
  /// iter_ids references never change under an indirection rewrite).
  core::LocalizeSnapshot data_snap;
  std::vector<core::LocalizeSnapshot> assign_snaps;
  std::vector<int> assign_batch;  ///< ind batch per assign slot; -1 = direct
  /// One inspector workspace per localized distribution (data_dist vs
  /// iter_space), so an attached translation cache binds to one DAD.
  core::InspectorWorkspace iws;         ///< localizes against data_dist
  core::InspectorWorkspace direct_iws;  ///< localizes against iter_space
  /// Delta-remap staging + diff scratch for the repair path.
  dist::RemapDeltaWorkspace remap_ws;
  std::vector<i64> delta_pos, delta_val, slice_scratch;

  bool has_direct = false;
  core::Localized direct_loc;  ///< batch = iter_ids against iter_space

  /// How each statement's target is addressed.
  struct WriteInfo {
    LoopReduceOp op = LoopReduceOp::Assign;
    ArrayInfo* target = nullptr;
    int refs_group = 0;    ///< 0: data_loc batch, 1: direct_loc, 2: own assign
    int batch = -1;        ///< data_loc batch index (group 0)
    int assign_slot = -1;  ///< index into assign_loc (group 2)
    int acc_slot = -1;     ///< accumulator (reduce ops)
  };
  std::vector<WriteInfo> writes;            ///< parallel to the FORALL body
  std::vector<core::Localized> assign_loc;  ///< private schedules for assigns
  std::vector<ArrayInfo*> assign_targets;   ///< parallel to assign_loc

  struct AccInfo {
    ArrayInfo* target = nullptr;
    core::ReduceOp op = core::ReduceOp::Add;
    int refs_group = 0;  ///< 0 = data group, 1 = direct group
  };
  std::vector<AccInfo> accs;

  /// The meta's symbolic operand table resolved to runtime storage.
  struct OperandRt {
    int group = 0;  ///< 0: data_loc batch, 1: direct_loc
    int batch = -1;
    const ArrayInfo* array = nullptr;
    int ghost_slot = -1;  ///< index into ghost_data / ghost_direct
  };
  std::vector<OperandRt> operands;
  /// Scalar slots bound to std::map node storage (address-stable), in the
  /// meta's first-occurrence order.
  std::vector<const i64*> scalar_ptrs;

  std::vector<ArrayInfo*> reads_data;    ///< gathered via data_loc
  std::vector<ArrayInfo*> reads_direct;  ///< gathered via direct_loc
  /// Ghost scratch per read array (index-aligned with reads_*).
  std::vector<std::vector<f64>> ghost_data;
  std::vector<std::vector<f64>> ghost_direct;
  /// Executor staging shared by every gather/scatter through this plan
  /// (staging() re-slices per schedule), plus reusable accumulator scratch —
  /// all sized on the first sweep so later sweeps allocate nothing.
  core::ExecutorWorkspace<f64> ws;
  std::vector<std::vector<f64>> acc_scratch;     ///< parallel to accs
  std::vector<std::vector<f64>> assign_scratch;  ///< parallel to assign_loc
  std::vector<ArrayInfo*> written_targets;       ///< note_write order (sorted)

  /// Plan-owned per-sweep scratch: resize() keeps capacity, so every sweep
  /// after the first resolves its slots with zero heap allocations.
  std::vector<RuntimeOperand> runtime_ops;
  std::vector<WriteSlot> write_slots;

  i64 expr_flops_per_iter = 0;
  i64 mem_refs_per_iter = 0;
  /// Build validity stamp: a failed (thrown-through) plan build leaves the
  /// plan not ready and EXEC_BEGIN refuses it (DESIGN.md §11).
  core::PlanBuildState build;
};

/// Per-FORALL VM register file: the live plan between CHECK_INCARNATION and
/// EXEC_END, the resolved trip count, and the guard-DAD scratch (vectors
/// retain capacity across sweeps, keeping the warm path allocation-free).
struct ForallRt {
  std::shared_ptr<LoopPlan> plan;
  i64 n = 0;  ///< iteration count this execution
  std::vector<dist::Dad> guard_data, guard_ind;
  std::span<f64> stage;  ///< PACK -> EXCHANGE handoff
  std::optional<rt::ClockSection> exec_section;
};

struct Instance::State {
  std::map<std::string, ArrayInfo> arrays;
  std::map<std::string, DecompInfo> decomps;
  std::map<std::string, std::shared_ptr<const core::GeoCol>> geocols;
  std::map<std::string, std::shared_ptr<const dist::Distribution>> dists;
  std::map<std::string, i64> scalars;
  core::ReuseRegistry registry;
  /// Section 3 guard for the tree-walk oracle (one slot per loop id).
  core::InspectorCache cache;
  /// Section 3 guard for the VM: plans keyed by (statement id, DAD
  /// incarnation set), probed by CHECK_INCARNATION.
  core::PlanCache plan_cache;
  std::vector<ForallRt> frt;  ///< indexed by ProgramPlan forall id
  /// Section 3 applied to the mapper coupler: cached GeoCoL graphs and
  /// partitioner outputs, guarded by the DADs / last_mod of their source
  /// arrays, so an unchanged CONSTRUCT + SET inside a time-step loop costs
  /// one guard check instead of a graph assembly and a repartition.
  core::InspectorCache mapper_cache;
  std::map<std::string, std::vector<dist::Dad>> geocol_sources;
};

namespace {
/// Cached products of the mapper-coupler directives.
struct GeoColProduct {
  std::shared_ptr<const core::GeoCol> geocol;
};
struct DistProduct {
  std::shared_ptr<const dist::Distribution> dist;
};
}  // namespace

// ---------------------------------------------------------------------------
// Instance plumbing
// ---------------------------------------------------------------------------

Instance::Instance(const Program& program)
    : program_(&program),
      plan_(std::make_unique<const ProgramPlan>(lower(program))) {}
Instance::~Instance() = default;

void Instance::set_param(const std::string& name, i64 value) {
  std::string key = name;
  std::transform(key.begin(), key.end(), key.begin(), ::toupper);
  host_params_[key] = value;
}

void Instance::bind_real(const std::string& array,
                         std::vector<f64> global_values) {
  std::string key = array;
  std::transform(key.begin(), key.end(), key.begin(), ::toupper);
  real_bindings_[key] = std::move(global_values);
}

void Instance::bind_int(const std::string& array,
                        std::vector<i64> global_values) {
  std::string key = array;
  std::transform(key.begin(), key.end(), key.begin(), ::toupper);
  int_bindings_[key] = std::move(global_values);
}

const core::InspectorCache::Stats& Instance::cache_stats() const {
  static const core::InspectorCache::Stats kZero{};
  if (!state_) return kZero;
  return tree_walk_ ? state_->cache.stats() : state_->plan_cache.stats();
}

const core::InspectorCache::Stats& Instance::mapper_cache_stats() const {
  static const core::InspectorCache::Stats kZero{};
  if (!state_) return kZero;
  return state_->mapper_cache.stats();
}

const core::ReuseRegistry& Instance::reuse_registry() const {
  static const core::ReuseRegistry kEmpty;
  return state_ ? state_->registry : kEmpty;
}

namespace {

i64 resolve_size(const SizeExpr& s, const std::map<std::string, i64>& scalars) {
  if (s.literal >= 0) return s.literal;
  const auto it = scalars.find(s.param);
  if (it == scalars.end()) {
    sema_fail("unbound parameter '" + s.param +
                  "' (host must call set_param)",
              s.line);
  }
  return it->second;
}

ArrayInfo& lookup_array(Instance::State& st, const std::string& name,
                        int line) {
  const auto it = st.arrays.find(name);
  if (it == st.arrays.end()) sema_fail("unknown array '" + name + "'", line);
  if (!it->second.materialized()) {
    sema_fail("array '" + name +
                  "' is not materialized (missing ALIGN or DISTRIBUTE)",
              line);
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// FORALL: plan build (PARTITION + LOCALIZE), shared by both execution modes
// ---------------------------------------------------------------------------

/// PARTITION: semantic classification against current array state, then the
/// iteration partition + indirection remap (remap time). Every check the
/// tree-walker made per build is re-issued here from the lowered metadata,
/// in its exact order, so diagnostics are mode-independent.
void plan_partition(rt::Process& p, Instance::State& st, const ForallMeta& m,
                    i64 n, LoopPlan& plan, PhaseTimes& phases) {
  if (!m.conflict_array.empty()) {
    sema_fail("array '" + m.conflict_array +
                  "' is both read and written in one FORALL; only "
                  "left-hand-side reductions may carry dependences",
              m.line);
  }
  plan.expr_flops_per_iter = m.expr_flops_per_iter;
  plan.mem_refs_per_iter = m.mem_refs_per_iter;

  // ---- classify arrays, find the two anchor distributions -------------------
  // Indirection arrays: INTEGER, aligned with the iteration space.
  for (const auto& name : m.ind_names) {
    ArrayInfo& a = lookup_array(st, name, m.line);
    if (a.type != ElemType::Integer) {
      sema_fail("indirection array '" + name + "' must be INTEGER", m.line);
    }
    if (!plan.iter_space) {
      plan.iter_space = a.dist_ptr();
    } else if (!(plan.iter_space->dad() == a.dad())) {
      sema_fail("indirection arrays of one FORALL must share a distribution",
                m.line);
    }
  }
  // Data arrays (via indirection): REAL*8, one common distribution.
  for (const auto& name : m.data_arrays) {
    ArrayInfo& a = lookup_array(st, name, m.line);
    if (a.type != ElemType::Real8) {
      sema_fail("data array '" + name + "' must be REAL*8", m.line);
    }
    if (!plan.data_dist) {
      plan.data_dist = a.dist_ptr();
    } else if (!(plan.data_dist->dad() == a.dad())) {
      sema_fail("data arrays of one FORALL must be aligned to one "
                "distribution",
                m.line);
    }
  }
  for (const auto& name : m.direct_arrays) {
    ArrayInfo& a = lookup_array(st, name, m.line);
    if (a.type != ElemType::Real8) {
      sema_fail("data array '" + name + "' must be REAL*8", m.line);
    }
    if (!plan.iter_space) {
      plan.iter_space = a.dist_ptr();
    } else if (!(plan.iter_space->dad() == a.dad())) {
      sema_fail("directly indexed arrays must be aligned with the "
                "iteration space",
                m.line);
    }
  }
  if (!plan.iter_space) {
    sema_fail("FORALL body references no distributed arrays", m.line);
  }
  if (plan.iter_space->size() != n) {
    sema_fail("FORALL bound does not match the iteration-space extent (" +
                  std::to_string(plan.iter_space->size()) + " vs " +
                  std::to_string(n) + ")",
              m.line);
  }

  // ---- phase B/C: iteration partition + indirection remap (remap time) -----
  {
    rt::ClockSection section(p.clock());
    std::vector<std::vector<i64>> ind_slices;  // 0-based data indices
    for (const auto& name : m.ind_names) {
      ArrayInfo& a = st.arrays.at(name);
      std::vector<i64> vals(a.integer->local().begin(),
                            a.integer->local().end());
      for (auto& v : vals) {
        if (v < 1 || v > plan.data_dist->size()) {
          sema_fail("indirection array '" + name + "' holds index " +
                        std::to_string(v) + " outside 1.." +
                        std::to_string(plan.data_dist->size()),
                    m.line);
        }
        v -= 1;  // Fortran subscripts are 1-based
      }
      ind_slices.push_back(std::move(vals));
    }
    if (!m.ind_names.empty()) {
      std::vector<std::span<const i64>> batches(ind_slices.begin(),
                                                ind_slices.end());
      plan.iters = core::partition_iterations(p, *plan.iter_space,
                                              *plan.data_dist, batches,
                                              plan.iws);
      for (auto& slice : ind_slices) {
        plan.ind_values.push_back(
            dist::apply_remap<i64>(p, plan.iters.remap, slice));
        // Keep the pre-remap slice: the repair-path diff baseline.
        plan.src_ind_values.push_back(std::move(slice));
      }
    } else {
      // No indirection: iterations stay home.
      plan.iters.iter_dist = plan.iter_space;
      plan.iters.remap = dist::build_remap(p, *plan.iter_space,
                                           *plan.iter_space);
      plan.iters.moved_iterations = 0;
    }
    plan.iter_ids =
        plan.iters.iter_dist->my_globals_view(plan.iter_ids_scratch);
    phases.remap += section.elapsed_sec();
  }
}

/// LOCALIZE: builds the communication schedules and resolves the meta's
/// symbolic slot tables — operands, scalars, writes — against runtime state
/// (inspector time).
void plan_localize(rt::Process& p, Instance::State& st, const ForallMeta& m,
                   LoopPlan& plan, PhaseTimes& phases) {
  rt::ClockSection section(p.clock());
  if (!plan.ind_values.empty()) {
    std::vector<std::span<const i64>> batches(plan.ind_values.begin(),
                                              plan.ind_values.end());
    core::localize_many(p, *plan.data_dist, batches, plan.iws, plan.data_loc);
    plan.iws.capture(plan.data_snap);
  }
  plan.has_direct = !m.direct_arrays.empty();
  if (plan.has_direct) {
    core::localize(p, *plan.iter_space, plan.iter_ids, plan.direct_iws,
                   plan.direct_loc);
  }

  for (const auto& name : m.read_data) {
    plan.reads_data.push_back(&st.arrays.at(name));
  }
  for (const auto& name : m.read_direct) {
    plan.reads_direct.push_back(&st.arrays.at(name));
  }
  plan.ghost_data.resize(plan.reads_data.size());
  plan.ghost_direct.resize(plan.reads_direct.size());

  // Scalar slots, in the meta's first-occurrence order: the first unbound
  // one reported here is the first the tree-walker's expression compiler
  // would have hit. std::map nodes are address-stable: bind storage directly.
  plan.scalar_ptrs.reserve(m.scalars.size());
  for (const auto& sym : m.scalars) {
    const auto it = st.scalars.find(sym.name);
    if (it == st.scalars.end()) {
      sema_fail("unbound scalar '" + sym.name + "'", sym.line);
    }
    plan.scalar_ptrs.push_back(&it->second);
  }
  plan.operands.reserve(m.operands.size());
  for (const auto& o : m.operands) {
    plan.operands.push_back(
        {o.group, o.batch, &st.arrays.at(o.array), o.ghost_slot});
  }
  CHAOS_CHECK(m.max_stack <= 64, "FORALL expression too deep");

  // Resolve writes: reduces share the read groups' schedules; assigns get
  // private schedules so Replace never touches unwritten elements.
  const auto batch_index = [&m](const std::string& ind_array) {
    return static_cast<int>(
        std::find(m.ind_names.begin(), m.ind_names.end(), ind_array) -
        m.ind_names.begin());
  };
  std::map<std::pair<std::string, int>, int> acc_of;  // (array, group)
  for (std::size_t si = 0; si < m.body.size(); ++si) {
    const auto& stmt = m.body[si];
    LoopPlan::WriteInfo w;
    w.op = stmt.op;
    w.target = &st.arrays.at(stmt.target);
    const bool direct = stmt.direct;
    if (stmt.op == LoopReduceOp::Assign) {
      w.refs_group = 2;
      w.assign_slot = static_cast<int>(plan.assign_loc.size());
      plan.assign_targets.push_back(w.target);
      const dist::Distribution& target_dist =
          direct ? *plan.iter_space : *plan.data_dist;
      plan.assign_loc.emplace_back();
      plan.assign_snaps.emplace_back();
      if (direct) {
        plan.assign_batch.push_back(-1);
        core::localize(p, target_dist, plan.iter_ids, plan.direct_iws,
                       plan.assign_loc.back());
      } else {
        const int b = batch_index(stmt.ind_array);
        plan.assign_batch.push_back(b);
        core::localize(p, target_dist,
                       plan.ind_values[static_cast<std::size_t>(b)],
                       plan.iws, plan.assign_loc.back());
        plan.iws.capture(plan.assign_snaps.back());
      }
    } else {
      w.refs_group = direct ? 1 : 0;
      if (!direct) w.batch = batch_index(stmt.ind_array);
      const core::ReduceOp rop = stmt.op == LoopReduceOp::Add
                                     ? core::ReduceOp::Add
                                     : stmt.op == LoopReduceOp::Max
                                           ? core::ReduceOp::Max
                                           : core::ReduceOp::Min;
      const auto key = std::make_pair(stmt.target, w.refs_group);
      auto it = acc_of.find(key);
      if (it == acc_of.end()) {
        it = acc_of.emplace(key, static_cast<int>(plan.accs.size())).first;
        plan.accs.push_back(LoopPlan::AccInfo{w.target, rop, w.refs_group});
      } else if (plan.accs[static_cast<std::size_t>(it->second)].op != rop) {
        sema_fail("mixed reduction operators on array '" + stmt.target +
                      "' in one FORALL",
                  stmt.line);
      }
      w.acc_slot = it->second;
    }
    plan.writes.push_back(std::move(w));
  }
  for (const auto& name : m.written) {
    plan.written_targets.push_back(&st.arrays.at(name));
  }
  phases.inspector += section.elapsed_sec();
}

/// Builds the full inspector product for one FORALL (the tree-walk oracle's
/// miss path; the VM runs the same two helpers from its PARTITION and
/// LOCALIZE ops). Collective.
std::shared_ptr<LoopPlan> build_plan(rt::Process& p, Instance::State& st,
                                     const ForallMeta& m, i64 n,
                                     const core::PlanOptions& opts,
                                     PhaseTimes& phases) {
  auto plan = std::make_shared<LoopPlan>();
  plan->build.begin_build();
  plan->meta = &m;
  plan->iws.configure(opts);
  plan->direct_iws.configure(opts);
  plan_partition(p, st, m, n, *plan, phases);
  plan_localize(p, st, m, *plan, phases);
  plan->build.mark_built();
  return plan;
}

/// Incremental repair of a cached LoopPlan whose guard failed ONLY the
/// last_mod stamp (an indirection array was rewritten in place; every DAD
/// unchanged). Keeps the iteration partition, ships only changed indirection
/// values through the remap, and splices the data + non-direct assign
/// schedules; direct schedules localize iter_ids, which an indirection
/// rewrite cannot change. Collective; returns false (machine-uniform) when
/// any vote rejects, leaving the plan NOT ready so the caller's full rebuild
/// path takes over (DESIGN.md §14).
bool repair_plan(rt::Process& p, Instance::State& st, const ForallMeta& m,
                 i64 n, LoopPlan& plan, PhaseTimes& phases) {
  bool ok = plan.build.ready() && plan.meta == &m && !m.ind_names.empty() &&
            plan.iws.options().repair_enabled() &&
            plan.iter_space->size() == n &&
            plan.src_ind_values.size() == m.ind_names.size();

  // Phase C': re-extract the indirection slices (same sema checks as the
  // build path), diff against the pre-remap baselines, and push only the
  // changed values through the remap. Remap time, like the build's phase C.
  {
    rt::ClockSection section(p.clock());
    if (ok) {
      for (std::size_t j = 0; j < m.ind_names.size(); ++j) {
        const ArrayInfo& a = st.arrays.at(m.ind_names[j]);
        if (a.integer == nullptr ||
            a.integer->local().size() != plan.src_ind_values[j].size()) {
          ok = false;
          break;
        }
      }
    }
    if (rt::allreduce_max(p, ok ? i64{0} : i64{1}) != 0) {
      ++p.stats().repair_fallbacks;
      return false;
    }
    plan.build.begin_build();  // mutating: not ready until the splice lands
    for (std::size_t j = 0; j < m.ind_names.size(); ++j) {
      const ArrayInfo& a = st.arrays.at(m.ind_names[j]);
      const auto seg = a.integer->local();
      plan.slice_scratch.resize(seg.size());
      for (std::size_t i = 0; i < seg.size(); ++i) {
        const i64 v = seg[i];
        if (v < 1 || v > plan.data_dist->size()) {
          sema_fail("indirection array '" + m.ind_names[j] +
                        "' holds index " + std::to_string(v) +
                        " outside 1.." +
                        std::to_string(plan.data_dist->size()),
                    m.line);
        }
        plan.slice_scratch[i] = v - 1;
      }
      plan.delta_pos.clear();
      plan.delta_val.clear();
      std::vector<i64>& base = plan.src_ind_values[j];
      for (std::size_t i = 0; i < plan.slice_scratch.size(); ++i) {
        if (plan.slice_scratch[i] != base[i]) {
          plan.delta_pos.push_back(static_cast<i64>(i));
          plan.delta_val.push_back(plan.slice_scratch[i]);
          base[i] = plan.slice_scratch[i];
        }
      }
      dist::apply_remap_delta(p, plan.iters.remap, plan.delta_pos,
                              plan.delta_val, plan.ind_values[j],
                              plan.remap_ws);
      // The diff scan touches every slice element once.
      p.clock().charge_ops(static_cast<i64>(seg.size()),
                           p.params().mem_us_per_word);
    }
    phases.remap += section.elapsed_sec();
  }

  // Phase D': splice the shared data schedule, then each non-direct assign
  // schedule, against their snapshots. Inspector time.
  {
    rt::ClockSection section(p.clock());
    std::vector<std::span<const i64>> batches(plan.ind_values.begin(),
                                              plan.ind_values.end());
    if (!core::repair_localize_many(p, *plan.data_dist, batches, plan.iws,
                                    plan.data_snap, plan.data_loc)) {
      phases.inspector += section.elapsed_sec();
      return false;
    }
    plan.iws.capture(plan.data_snap);
    for (std::size_t slot = 0; slot < plan.assign_loc.size(); ++slot) {
      const int b = plan.assign_batch[slot];
      if (b < 0) continue;  // direct assign: iter_ids references unchanged
      if (!core::repair_localize(p, *plan.data_dist,
                                 plan.ind_values[static_cast<std::size_t>(b)],
                                 plan.iws, plan.assign_snaps[slot],
                                 plan.assign_loc[slot])) {
        phases.inspector += section.elapsed_sec();
        return false;
      }
      plan.iws.capture(plan.assign_snaps[slot]);
    }
    phases.inspector += section.elapsed_sec();
  }
  plan.build.mark_built();
  return true;
}

// ---------------------------------------------------------------------------
// FORALL: execution ops, shared by both execution modes
// ---------------------------------------------------------------------------

/// Runs one statement's bytecode for local iteration @p l.
f64 eval_code(const std::vector<StackInstr>& code,
              const std::vector<RuntimeOperand>& ops,
              const std::vector<const i64*>& scalars, i64 l, f64 iter_value,
              f64* stack) {
  int sp = 0;
  for (const auto& ins : code) {
    switch (ins.op) {
      case StackOp::Imm: stack[sp++] = ins.imm; break;
      case StackOp::Scalar:
        stack[sp++] =
            static_cast<f64>(*scalars[static_cast<std::size_t>(ins.slot)]);
        break;
      case StackOp::IterVal: stack[sp++] = iter_value; break;
      case StackOp::Load: {
        const RuntimeOperand& o = ops[static_cast<std::size_t>(ins.slot)];
        const i64 idx = o.refs[l];
        stack[sp++] = idx < o.nlocal
                          ? o.local[idx]
                          : o.ghost[idx - o.nlocal];
        break;
      }
      case StackOp::Neg: stack[sp - 1] = -stack[sp - 1]; break;
      case StackOp::Add: --sp; stack[sp - 1] += stack[sp]; break;
      case StackOp::Sub: --sp; stack[sp - 1] -= stack[sp]; break;
      case StackOp::Mul: --sp; stack[sp - 1] *= stack[sp]; break;
      case StackOp::Div: --sp; stack[sp - 1] /= stack[sp]; break;
      case StackOp::Pow:
        --sp;
        stack[sp - 1] = std::pow(stack[sp - 1], stack[sp]);
        break;
      case StackOp::Sqrt: stack[sp - 1] = std::sqrt(stack[sp - 1]); break;
      case StackOp::Abs: stack[sp - 1] = std::abs(stack[sp - 1]); break;
      case StackOp::Sin: stack[sp - 1] = std::sin(stack[sp - 1]); break;
      case StackOp::Cos: stack[sp - 1] = std::cos(stack[sp - 1]); break;
      case StackOp::Exp: stack[sp - 1] = std::exp(stack[sp - 1]); break;
      case StackOp::Min2:
        --sp;
        stack[sp - 1] = std::min(stack[sp - 1], stack[sp]);
        break;
      case StackOp::Max2:
        --sp;
        stack[sp - 1] = std::max(stack[sp - 1], stack[sp]);
        break;
      case StackOp::Mod2:
        --sp;
        stack[sp - 1] = std::fmod(stack[sp - 1], stack[sp]);
        break;
    }
  }
  return stack[0];
}

/// PACK: sizes the read array's ghost buffer and copies requested owned
/// elements into the plan's staging buffer. Returns the staged span for the
/// EXCHANGE that must follow.
std::span<f64> exec_pack(LoopPlan& plan, i32 group, i32 k) {
  ArrayInfo* a = group == 0 ? plan.reads_data[static_cast<std::size_t>(k)]
                            : plan.reads_direct[static_cast<std::size_t>(k)];
  std::vector<f64>& ghost = group == 0
                                ? plan.ghost_data[static_cast<std::size_t>(k)]
                                : plan.ghost_direct[static_cast<std::size_t>(k)];
  const core::CommSchedule& sched =
      group == 0 ? plan.data_loc.schedule : plan.direct_loc.schedule;
  ghost.resize(static_cast<std::size_t>(sched.nghost));
  return core::gather_pack<f64>(sched, a->real->local(),
                                std::span<f64>(ghost), plan.ws);
}

/// EXCHANGE: the collective all-to-all into the ghost buffer.
void exec_exchange(rt::Process& p, LoopPlan& plan, i32 group, i32 k,
                   std::span<const f64> stage) {
  std::vector<f64>& ghost = group == 0
                                ? plan.ghost_data[static_cast<std::size_t>(k)]
                                : plan.ghost_direct[static_cast<std::size_t>(k)];
  const core::CommSchedule& sched =
      group == 0 ? plan.data_loc.schedule : plan.direct_loc.schedule;
  core::gather_exchange<f64>(p, sched, stage, std::span<f64>(ghost));
}

/// UNPACK: the gather's modeled memory charge.
void exec_unpack(rt::Process& p, LoopPlan& plan, i32 group) {
  const core::CommSchedule& sched =
      group == 0 ? plan.data_loc.schedule : plan.direct_loc.schedule;
  core::gather_unpack(p, sched);
}

/// COMPUTE: resolves operand and write slots against current storage, runs
/// the sweep, and charges the modeled per-iteration cost.
void exec_compute(rt::Process& p, LoopPlan& plan) {
  const ForallMeta& m = *plan.meta;

  // Reduction accumulators: [0, nlocal + nghost) of the group's schedule.
  // Plan-owned scratch: assign() keeps capacity, so sweeps after the first
  // reuse the same heap blocks.
  plan.acc_scratch.resize(plan.accs.size());
  for (std::size_t k = 0; k < plan.accs.size(); ++k) {
    const auto& info = plan.accs[k];
    const auto& sched = info.refs_group == 0 ? plan.data_loc.schedule
                                             : plan.direct_loc.schedule;
    plan.acc_scratch[k].assign(
        static_cast<std::size_t>(sched.nlocal_at_build + sched.nghost),
        core::reduce_identity<f64>(info.op));
  }
  // Assign staging: ghost region of each private schedule.
  plan.assign_scratch.resize(plan.assign_loc.size());
  for (std::size_t k = 0; k < plan.assign_loc.size(); ++k) {
    plan.assign_scratch[k].assign(
        static_cast<std::size_t>(plan.assign_loc[k].schedule.nghost), 0.0);
  }

  // Resolve operand slots against current storage (pointers may move after
  // a redistribute, but that invalidates the plan anyway; the PACKs above
  // have already sized the ghost vectors).
  plan.runtime_ops.resize(plan.operands.size());
  for (std::size_t k = 0; k < plan.operands.size(); ++k) {
    const auto& spec = plan.operands[k];
    RuntimeOperand& o = plan.runtime_ops[k];
    if (spec.group == 0) {
      o.refs = plan.data_loc.refs[static_cast<std::size_t>(spec.batch)].data();
      o.ghost =
          plan.ghost_data[static_cast<std::size_t>(spec.ghost_slot)].data();
    } else {
      o.refs = plan.direct_loc.refs.data();
      o.ghost =
          plan.ghost_direct[static_cast<std::size_t>(spec.ghost_slot)].data();
    }
    o.local = spec.array->real->local().data();
    o.nlocal = spec.array->real->nlocal();
  }
  plan.write_slots.resize(m.body.size());
  for (std::size_t si = 0; si < m.body.size(); ++si) {
    const auto& w = plan.writes[si];
    WriteSlot& slot = plan.write_slots[si];
    slot.refs_group = w.refs_group;
    slot.code = &m.code[si];
    slot.rop = core::ReduceOp::Add;
    if (w.refs_group == 2) {
      const auto& loc =
          plan.assign_loc[static_cast<std::size_t>(w.assign_slot)];
      slot.refs = loc.refs.data();
      slot.local = w.target->real->local().data();
      slot.staging =
          plan.assign_scratch[static_cast<std::size_t>(w.assign_slot)].data();
      slot.nlocal = loc.schedule.nlocal_at_build;
    } else {
      slot.refs =
          w.refs_group == 0
              ? plan.data_loc.refs[static_cast<std::size_t>(w.batch)].data()
              : plan.direct_loc.refs.data();
      slot.local = nullptr;
      slot.staging =
          plan.acc_scratch[static_cast<std::size_t>(w.acc_slot)].data();
      slot.rop = plan.accs[static_cast<std::size_t>(w.acc_slot)].op;
      slot.nlocal = -1;
    }
  }

  // The sweep (statically compiled bytecode per statement).
  const i64 niter = static_cast<i64>(plan.iter_ids.size());
  f64 stack[64];
  for (i64 l = 0; l < niter; ++l) {
    const f64 iter_value =
        static_cast<f64>(plan.iter_ids[static_cast<std::size_t>(l)] + 1);
    for (auto& slot : plan.write_slots) {
      const f64 v = eval_code(*slot.code, plan.runtime_ops, plan.scalar_ptrs,
                              l, iter_value, stack);
      const i64 ref = slot.refs[l];
      if (slot.refs_group == 2) {
        if (ref < slot.nlocal) {
          slot.local[ref] = v;
        } else {
          slot.staging[ref - slot.nlocal] = v;
        }
      } else {
        slot.staging[ref] = core::apply_reduce(slot.rop, slot.staging[ref], v);
      }
    }
  }
  p.clock().charge_ops(niter,
                       p.params().flop_us *
                               static_cast<f64>(plan.expr_flops_per_iter) +
                           p.params().mem_us_per_word *
                               static_cast<f64>(plan.mem_refs_per_iter));
}

/// FOLD_SCATTER: folds one accumulator's local part with the op and pushes
/// its ghost part back to the owners.
void exec_fold_scatter(rt::Process& p, LoopPlan& plan, i32 k) {
  const auto& info = plan.accs[static_cast<std::size_t>(k)];
  const std::vector<f64>& acc = plan.acc_scratch[static_cast<std::size_t>(k)];
  const auto& sched = info.refs_group == 0 ? plan.data_loc.schedule
                                           : plan.direct_loc.schedule;
  auto local = info.target->real->local();
  for (i64 j = 0; j < sched.nlocal_at_build; ++j) {
    local[static_cast<std::size_t>(j)] = core::apply_reduce(
        info.op, local[static_cast<std::size_t>(j)],
        acc[static_cast<std::size_t>(j)]);
  }
  p.clock().charge_ops(sched.nlocal_at_build, p.params().flop_us);
  core::scatter_reduce<f64>(
      p, sched, local,
      std::span<const f64>(acc).subspan(
          static_cast<std::size_t>(sched.nlocal_at_build)),
      info.op, plan.ws);
}

/// SCATTER_ASSIGN: writes one private schedule's ghost values into the
/// owners' elements.
void exec_scatter_assign(rt::Process& p, LoopPlan& plan, i32 k) {
  core::scatter_assign<f64>(
      p, plan.assign_loc[static_cast<std::size_t>(k)].schedule,
      plan.assign_targets[static_cast<std::size_t>(k)]->real->local(),
      plan.assign_scratch[static_cast<std::size_t>(k)], plan.ws);
}

/// NOTE_WRITES: the loop modified its targets — record it (once per written
/// array; this is the "once per loop, not per element" property of nmod).
void exec_note_writes(LoopPlan& plan, core::ReuseRegistry& reg) {
  for (ArrayInfo* target : plan.written_targets) {
    reg.note_write(target->dad());
  }
}

/// Executes one FORALL through its plan (phase E) — the tree-walk oracle's
/// executor, composed of the same ops the VM dispatches one by one, so both
/// modes charge the virtual clock in the same sequence. Collective.
void execute_loop(rt::Process& p, LoopPlan& plan, core::ReuseRegistry& reg) {
  CHAOS_CHECK(plan.build.ready(),
              "execute_loop: plan build incomplete — a failed inspection "
              "must be retried before executing");
  for (i32 k = 0; k < static_cast<i32>(plan.reads_data.size()); ++k) {
    const std::span<f64> stage = exec_pack(plan, 0, k);
    exec_exchange(p, plan, 0, k, stage);
    exec_unpack(p, plan, 0);
  }
  for (i32 k = 0; k < static_cast<i32>(plan.reads_direct.size()); ++k) {
    const std::span<f64> stage = exec_pack(plan, 1, k);
    exec_exchange(p, plan, 1, k, stage);
    exec_unpack(p, plan, 1);
  }
  exec_compute(p, plan);
  for (i32 k = 0; k < static_cast<i32>(plan.accs.size()); ++k) {
    exec_fold_scatter(p, plan, k);
  }
  for (i32 k = 0; k < static_cast<i32>(plan.assign_loc.size()); ++k) {
    exec_scatter_assign(p, plan, k);
  }
  exec_note_writes(plan, reg);
}

}  // namespace

// ---------------------------------------------------------------------------
// Statement dispatch: the tree-walk oracle
// ---------------------------------------------------------------------------

void Instance::run_statement(rt::Process& p, const Statement& s) {
  State& st = *state_;

  if (const auto* loop = std::get_if<DoLoop>(&s.node)) {
    const i64 lo = resolve_size(loop->lo, st.scalars);
    const i64 hi = resolve_size(loop->hi, st.scalars);
    for (i64 v = lo; v <= hi; ++v) {
      st.scalars[loop->var] = v;
      for (const auto& inner : loop->body) run_statement(p, inner);
    }
    return;
  }
  if (const auto* f = std::get_if<Forall>(&s.node)) {
    const ForallMeta* meta = nullptr;
    for (const auto& fm : plan_->foralls) {
      if (fm.loop_id == f->loop_id) {
        meta = &fm;
        break;
      }
    }
    CHAOS_CHECK(meta != nullptr, "tree walk: FORALL missing from PlanIR");
    const i64 lo = resolve_size(f->lo, st.scalars);
    if (lo != 1) sema_fail("FORALL lower bound must be 1", f->line);
    const i64 n = resolve_size(f->hi, st.scalars);

    std::shared_ptr<LoopPlan> plan;
    if (reuse_enabled_) {
      // Assemble the guard DADs from a fresh AST scan — the tree walker's
      // per-sweep overhead the VM's CHECK_INCARNATION replaces. (The
      // iteration space's DAD rides along with the indirection guards.)
      ExprScan scan;
      std::set<std::string> all_arrays;
      for (const auto& stmt : f->body) {
        scan.note_index(stmt.target_index);
        scan.scan(*stmt.value);
        all_arrays.insert(stmt.target_array);
      }
      for (const auto& a : scan.read_data) all_arrays.insert(a);
      for (const auto& a : scan.read_direct) all_arrays.insert(a);
      std::vector<dist::Dad> data_dads;
      for (const auto& name : all_arrays) {
        data_dads.push_back(lookup_array(st, name, f->line).dad());
      }
      std::vector<dist::Dad> ind_dads;
      for (const auto& name : scan.ind_names) {
        ind_dads.push_back(lookup_array(st, name, f->line).dad());
      }
      auto build = [&] {
        return build_plan(p, st, *meta, n, plan_opts_, phases_);
      };
      if (plan_opts_.repair_enabled()) {
        plan = st.cache.get_or_build<LoopPlan>(
            f->loop_id, st.registry, std::move(data_dads),
            std::move(ind_dads), build,
            [&](const std::shared_ptr<LoopPlan>& cand) {
              return repair_plan(p, st, *meta, n, *cand, phases_);
            });
      } else {
        // SPMD-uniform short-circuit: with repair off, the plain overload —
        // no vote collectives, no fallback counting, stats bit-identical to
        // the VM's two-way probe.
        plan = st.cache.get_or_build<LoopPlan>(
            f->loop_id, st.registry, std::move(data_dads),
            std::move(ind_dads), build);
      }
    } else {
      plan = build_plan(p, st, *meta, n, plan_opts_, phases_);
    }

    rt::ClockSection section(p.clock());
    execute_loop(p, *plan, st.registry);
    phases_.executor += section.elapsed_sec();
    return;
  }
  run_directive(p, s);
}

// ---------------------------------------------------------------------------
// Directives (shared: the VM's DIRECTIVE op and the tree walk both land here)
// ---------------------------------------------------------------------------

void Instance::run_directive(rt::Process& p, const Statement& s) {
  State& st = *state_;

  if (const auto* d = std::get_if<DeclArrays>(&s.node)) {
    for (const auto& [name, size] : d->arrays) {
      if (st.arrays.count(name)) sema_fail("array '" + name + "' redeclared",
                                           size.line);
      ArrayInfo info;
      info.type = d->type;
      info.size = resolve_size(size, st.scalars);
      info.decl_line = size.line;
      st.arrays.emplace(name, std::move(info));
    }
    return;
  }
  if (const auto* d = std::get_if<DeclDecomps>(&s.node)) {
    for (const auto& [name, size] : d->decomps) {
      if (st.decomps.count(name)) {
        sema_fail("decomposition '" + name + "' redeclared", size.line);
      }
      DecompInfo info;
      info.size = resolve_size(size, st.scalars);
      info.decl_line = size.line;
      st.decomps.emplace(name, std::move(info));
    }
    return;
  }
  if (const auto* d = std::get_if<Distribute>(&s.node)) {
    auto it = st.decomps.find(d->decomp);
    if (it == st.decomps.end()) {
      sema_fail("DISTRIBUTE of unknown decomposition '" + d->decomp + "'",
                d->line);
    }
    DecompInfo& dec = it->second;
    if (d->format == "BLOCK") {
      dec.dist = dist::Distribution::block(p, dec.size);
    } else if (d->format == "CYCLIC") {
      dec.dist = dist::Distribution::cyclic(p, dec.size);
    } else {
      const auto dit = st.dists.find(d->format);
      if (dit == st.dists.end()) {
        sema_fail("unknown distribution format '" + d->format + "'", d->line);
      }
      dec.dist = dit->second;
    }
    return;
  }
  if (const auto* a = std::get_if<Align>(&s.node)) {
    auto dit = st.decomps.find(a->decomp);
    if (dit == st.decomps.end()) {
      sema_fail("ALIGN with unknown decomposition '" + a->decomp + "'",
                a->line);
    }
    DecompInfo& dec = dit->second;
    if (!dec.dist) {
      sema_fail("ALIGN before DISTRIBUTE of '" + a->decomp + "'", a->line);
    }
    for (const auto& name : a->arrays) {
      auto ait = st.arrays.find(name);
      if (ait == st.arrays.end()) {
        sema_fail("ALIGN of unknown array '" + name + "'", a->line);
      }
      ArrayInfo& arr = ait->second;
      if (arr.size != dec.size) {
        sema_fail("array '" + name + "' and decomposition '" + a->decomp +
                      "' differ in extent",
                  a->line);
      }
      arr.decomp = a->decomp;
      dec.aligned.push_back(name);
      // Materialize storage and pick up the host binding.
      if (arr.type == ElemType::Real8) {
        arr.real = std::make_unique<dist::DistributedArray<f64>>(p, dec.dist);
        const auto bit = real_bindings_.find(name);
        if (bit != real_bindings_.end()) {
          CHAOS_CHECK(static_cast<i64>(bit->second.size()) == arr.size,
                      "binding for " + name + " has wrong length");
          const auto& vals = bit->second;
          arr.real->fill_by_global(
              [&vals](i64 g) { return vals[static_cast<std::size_t>(g)]; });
        }
      } else {
        arr.integer =
            std::make_unique<dist::DistributedArray<i64>>(p, dec.dist);
        const auto bit = int_bindings_.find(name);
        if (bit != int_bindings_.end()) {
          CHAOS_CHECK(static_cast<i64>(bit->second.size()) == arr.size,
                      "binding for " + name + " has wrong length");
          const auto& vals = bit->second;
          arr.integer->fill_by_global(
              [&vals](i64 g) { return vals[static_cast<std::size_t>(g)]; });
        }
      }
      st.registry.note_write(arr.dad());  // initialization is a write
    }
    return;
  }
  if (const auto* c = std::get_if<Construct>(&s.node)) {
    rt::ClockSection section(p.clock());
    const i64 nverts = resolve_size(c->nverts, st.scalars);
    // The vertex distribution: the decomposition of the geometry/load
    // arrays if given, else any distributed decomposition of extent nverts.
    std::shared_ptr<const dist::Distribution> vdist;
    auto adopt = [&](const std::string& array_name) {
      ArrayInfo& a = lookup_array(st, array_name, c->line);
      if (!vdist) {
        vdist = a.dist_ptr();
      } else if (!(vdist->dad() == a.dad())) {
        sema_fail("CONSTRUCT per-vertex arrays must share a distribution",
                  c->line);
      }
    };
    for (const auto& g : c->geometry_arrays) adopt(g);
    if (!c->load_array.empty()) adopt(c->load_array);
    if (!vdist) {
      for (const auto& [name, dec] : st.decomps) {
        if (dec.size == nverts && dec.dist) {
          vdist = dec.dist;
          break;
        }
      }
    }
    if (!vdist) {
      sema_fail("CONSTRUCT: no distributed decomposition of extent " +
                    std::to_string(nverts),
                c->line);
    }
    if (vdist->size() != nverts) {
      sema_fail("CONSTRUCT: vertex count mismatch", c->line);
    }

    // Guard DADs: every array the GeoCoL is built from. If none changed
    // (and none may have been written) since the last CONSTRUCT here, the
    // cached graph is reused — the paper's mapper-level application of the
    // Section 3 method.
    std::vector<dist::Dad> source_dads;
    for (const auto& g : c->geometry_arrays) {
      source_dads.push_back(lookup_array(st, g, c->line).dad());
    }
    if (!c->load_array.empty()) {
      source_dads.push_back(lookup_array(st, c->load_array, c->line).dad());
    }
    for (const auto& [uname, vname] : c->links) {
      source_dads.push_back(lookup_array(st, uname, c->line).dad());
      source_dads.push_back(lookup_array(st, vname, c->line).dad());
    }
    st.geocol_sources[c->name] = source_dads;

    auto build_geocol = [&] {
      core::GeoColBuilder builder(p, vdist);
      std::vector<std::span<const f64>> coords;
      for (const auto& g : c->geometry_arrays) {
        ArrayInfo& a = lookup_array(st, g, c->line);
        if (a.type != ElemType::Real8) {
          sema_fail("GEOMETRY array '" + g + "' must be REAL*8", c->line);
        }
        coords.push_back(a.real->local());
      }
      if (!coords.empty()) builder.geometry(coords);
      if (!c->load_array.empty()) {
        ArrayInfo& a = lookup_array(st, c->load_array, c->line);
        if (a.type != ElemType::Real8) {
          sema_fail("LOAD array must be REAL*8", c->line);
        }
        builder.load(a.real->local());
      }
      for (const auto& [uname, vname] : c->links) {
        ArrayInfo& ua = lookup_array(st, uname, c->line);
        ArrayInfo& va = lookup_array(st, vname, c->line);
        if (ua.type != ElemType::Integer || va.type != ElemType::Integer) {
          sema_fail("LINK arrays must be INTEGER", c->line);
        }
        const i64 declared = resolve_size(c->link_size, st.scalars);
        if (ua.size != declared || va.size != declared) {
          sema_fail("LINK arrays do not match the declared edge count",
                    c->line);
        }
        // Convert the 1-based endpoints to 0-based vertex ids.
        std::vector<i64> u0(ua.integer->local().begin(),
                            ua.integer->local().end());
        std::vector<i64> v0(va.integer->local().begin(),
                            va.integer->local().end());
        for (auto& x : u0) x -= 1;
        for (auto& x : v0) x -= 1;
        builder.link(u0, v0);
      }
      return std::make_shared<GeoColProduct>(GeoColProduct{builder.build()});
    };
    if (reuse_enabled_) {
      const auto key = reinterpret_cast<chaos::u64>(c);
      auto product = st.mapper_cache.get_or_build<GeoColProduct>(
          key, st.registry, {}, source_dads, build_geocol);
      st.geocols[c->name] = product->geocol;
    } else {
      st.geocols[c->name] = build_geocol()->geocol;
    }
    phases_.graph_gen += section.elapsed_sec();
    return;
  }
  if (const auto* sp = std::get_if<SetPartition>(&s.node)) {
    rt::ClockSection section(p.clock());
    const auto git = st.geocols.find(sp->geocol);
    if (git == st.geocols.end()) {
      sema_fail("SET: unknown GeoCoL '" + sp->geocol + "'", sp->line);
    }
    auto build_dist = [&] {
      return std::make_shared<DistProduct>(DistProduct{
          core::set_by_partitioning(p, *git->second, sp->partitioner)});
    };
    if (reuse_enabled_) {
      // Guarded by the same source arrays that fed the GeoCoL: unchanged
      // sources mean an unchanged graph, so the old partition stands.
      const auto sit = st.geocol_sources.find(sp->geocol);
      const std::vector<dist::Dad> guard =
          sit != st.geocol_sources.end() ? sit->second
                                         : std::vector<dist::Dad>{};
      const auto key = reinterpret_cast<chaos::u64>(sp);
      auto product = st.mapper_cache.get_or_build<DistProduct>(
          key, st.registry, {}, guard, build_dist);
      st.dists[sp->dist_name] = product->dist;
    } else {
      st.dists[sp->dist_name] = build_dist()->dist;
    }
    phases_.partition += section.elapsed_sec();
    return;
  }
  if (const auto* r = std::get_if<Redistribute>(&s.node)) {
    rt::ClockSection section(p.clock());
    auto dit = st.decomps.find(r->decomp);
    if (dit == st.decomps.end()) {
      sema_fail("REDISTRIBUTE of unknown decomposition '" + r->decomp + "'",
                r->line);
    }
    const auto fit = st.dists.find(r->dist_name);
    if (fit == st.dists.end()) {
      sema_fail("REDISTRIBUTE with unknown distribution '" + r->dist_name +
                    "'",
                r->line);
    }
    DecompInfo& dec = dit->second;
    if (dec.size != fit->second->size()) {
      sema_fail("REDISTRIBUTE: extent mismatch", r->line);
    }
    core::Redistributor rd(&st.registry);
    for (const auto& name : dec.aligned) {
      ArrayInfo& a = st.arrays.at(name);
      if (a.real) rd.add(*a.real);
      if (a.integer) rd.add(*a.integer);
    }
    rd.apply(p, fit->second);
    dec.dist = fit->second;
    phases_.remap += section.elapsed_sec();
    return;
  }
  CHAOS_CHECK(false, "unhandled statement kind");
}

// ---------------------------------------------------------------------------
// The VM: a dispatch loop over PlanIR
// ---------------------------------------------------------------------------

void Instance::run_vm(rt::Process& p) {
  State& st = *state_;
  const ProgramPlan& prog = *plan_;
  st.frt.resize(prog.foralls.size());

  /// DO-loop activation record (bounds resolved once at LOOP_BEGIN).
  struct Frame {
    i64 cur;
    i64 hi;
    i32 body_pc;
    const std::string* var;
  };
  std::vector<Frame> frames;

  i32 pc = 0;
  const i32 end = static_cast<i32>(prog.code.size());
  while (pc < end) {
    const PlanInstr ins = prog.code[static_cast<std::size_t>(pc)];
    switch (ins.op) {
      case PlanOp::Directive: {
        run_directive(p, *prog.directives[static_cast<std::size_t>(ins.a)]);
        ++pc;
        break;
      }
      case PlanOp::LoopBegin: {
        const LoopMeta& lm = prog.loops[static_cast<std::size_t>(ins.a)];
        const i64 lo = resolve_size(lm.lo, st.scalars);
        const i64 hi = resolve_size(lm.hi, st.scalars);
        if (lo > hi) {
          pc = ins.b;  // empty loop: the variable is never assigned
          break;
        }
        st.scalars[lm.var] = lo;
        frames.push_back({lo, hi, pc + 1, &lm.var});
        ++pc;
        break;
      }
      case PlanOp::LoopEnd: {
        Frame& fr = frames.back();
        if (++fr.cur <= fr.hi) {
          st.scalars[*fr.var] = fr.cur;
          pc = fr.body_pc;
        } else {
          frames.pop_back();  // the variable keeps its final value
          ++pc;
        }
        break;
      }
      case PlanOp::CheckIncarnation: {
        const ForallMeta& m = prog.foralls[static_cast<std::size_t>(ins.a)];
        ForallRt& fx = st.frt[static_cast<std::size_t>(ins.a)];
        const i64 lo = resolve_size(m.lo, st.scalars);
        if (lo != 1) sema_fail("FORALL lower bound must be 1", m.line);
        fx.n = resolve_size(m.hi, st.scalars);
        fx.plan = nullptr;
        if (reuse_enabled_) {
          fx.guard_data.clear();
          for (const auto& name : m.guard_arrays) {
            fx.guard_data.push_back(lookup_array(st, name, m.line).dad());
          }
          fx.guard_ind.clear();
          for (const auto& name : m.ind_names) {
            fx.guard_ind.push_back(lookup_array(st, name, m.line).dad());
          }
          if (!plan_opts_.repair_enabled()) {
            // Two-way probe: hit or plain miss, the pre-repair protocol.
            if (auto hit = st.plan_cache.probe(m.loop_id, st.registry,
                                               fx.guard_data, fx.guard_ind)) {
              fx.plan = std::static_pointer_cast<LoopPlan>(std::move(hit));
              pc = ins.b;  // warm entry: straight to EXEC_BEGIN
              break;
            }
          } else {
            // Three-way probe (DESIGN.md §14): hit, repair candidate (DADs
            // match, only the indirection stamp is stale — try the splice
            // before paying a full re-inspection), or miss.
            auto pr = st.plan_cache.probe_ex(m.loop_id, st.registry,
                                             fx.guard_data, fx.guard_ind);
            if (pr.outcome == core::PlanCache::ProbeOutcome::Hit) {
              fx.plan = std::static_pointer_cast<LoopPlan>(
                  std::move(pr.product));
              pc = ins.b;
              break;
            }
            if (pr.outcome == core::PlanCache::ProbeOutcome::RepairCandidate) {
              auto cand =
                  std::static_pointer_cast<LoopPlan>(std::move(pr.product));
              if (repair_plan(p, st, m, fx.n, *cand, phases_)) {
                st.plan_cache.note_repaired(m.loop_id, st.registry,
                                            fx.guard_data, fx.guard_ind);
                fx.plan = std::move(cand);
                pc = ins.b;  // repaired entry: straight to EXEC_BEGIN
                break;
              }
              st.plan_cache.note_repair_fallback();
            }
          }
        }
        ++pc;  // cold: fall through to PARTITION / LOCALIZE / STORE_PLAN
        break;
      }
      case PlanOp::Partition: {
        const ForallMeta& m = prog.foralls[static_cast<std::size_t>(ins.a)];
        ForallRt& fx = st.frt[static_cast<std::size_t>(ins.a)];
        fx.plan = std::make_shared<LoopPlan>();
        fx.plan->build.begin_build();
        fx.plan->meta = &m;
        fx.plan->iws.configure(plan_opts_);
        fx.plan->direct_iws.configure(plan_opts_);
        plan_partition(p, st, m, fx.n, *fx.plan, phases_);
        ++pc;
        break;
      }
      case PlanOp::Localize: {
        const ForallMeta& m = prog.foralls[static_cast<std::size_t>(ins.a)];
        ForallRt& fx = st.frt[static_cast<std::size_t>(ins.a)];
        plan_localize(p, st, m, *fx.plan, phases_);
        fx.plan->build.mark_built();
        ++pc;
        break;
      }
      case PlanOp::StorePlan: {
        const ForallMeta& m = prog.foralls[static_cast<std::size_t>(ins.a)];
        ForallRt& fx = st.frt[static_cast<std::size_t>(ins.a)];
        if (reuse_enabled_) {
          st.plan_cache.store(m.loop_id, st.registry, fx.guard_data,
                              fx.guard_ind, fx.plan);
        }
        ++pc;
        break;
      }
      case PlanOp::ExecBegin: {
        ForallRt& fx = st.frt[static_cast<std::size_t>(ins.a)];
        CHAOS_CHECK(fx.plan && fx.plan->build.ready(),
                    "execute_loop: plan build incomplete — a failed "
                    "inspection must be retried before executing");
        fx.exec_section.emplace(p.clock());
        ++pc;
        break;
      }
      case PlanOp::Pack: {
        ForallRt& fx = st.frt[static_cast<std::size_t>(ins.a)];
        fx.stage = exec_pack(*fx.plan, ins.b, ins.c);
        ++pc;
        break;
      }
      case PlanOp::Exchange: {
        ForallRt& fx = st.frt[static_cast<std::size_t>(ins.a)];
        exec_exchange(p, *fx.plan, ins.b, ins.c, fx.stage);
        ++pc;
        break;
      }
      case PlanOp::Unpack: {
        ForallRt& fx = st.frt[static_cast<std::size_t>(ins.a)];
        exec_unpack(p, *fx.plan, ins.b);
        ++pc;
        break;
      }
      case PlanOp::Compute: {
        ForallRt& fx = st.frt[static_cast<std::size_t>(ins.a)];
        exec_compute(p, *fx.plan);
        ++pc;
        break;
      }
      case PlanOp::FoldScatter: {
        ForallRt& fx = st.frt[static_cast<std::size_t>(ins.a)];
        exec_fold_scatter(p, *fx.plan, ins.c);
        ++pc;
        break;
      }
      case PlanOp::ScatterAssign: {
        ForallRt& fx = st.frt[static_cast<std::size_t>(ins.a)];
        exec_scatter_assign(p, *fx.plan, ins.c);
        ++pc;
        break;
      }
      case PlanOp::NoteWrites: {
        ForallRt& fx = st.frt[static_cast<std::size_t>(ins.a)];
        exec_note_writes(*fx.plan, st.registry);
        ++pc;
        break;
      }
      case PlanOp::ExecEnd: {
        ForallRt& fx = st.frt[static_cast<std::size_t>(ins.a)];
        phases_.executor += fx.exec_section->elapsed_sec();
        fx.exec_section.reset();
        ++pc;
        break;
      }
    }
  }
}

void Instance::execute(rt::Process& p) {
  state_ = std::make_unique<State>();
  phases_ = PhaseTimes{};
  for (const auto& [name, value] : host_params_) {
    state_->scalars[name] = value;
  }
  // Every parameter the parser collected must be bound.
  for (const auto& name : program_->params) {
    if (!state_->scalars.count(name)) {
      throw LangError("parameter '" + name + "' is not bound by the host", 0);
    }
  }
  if (tree_walk_) {
    for (const auto& s : program_->statements) run_statement(p, s);
  } else {
    run_vm(p);
  }
}

std::vector<f64> Instance::fetch_real(rt::Process& p,
                                      const std::string& array) {
  CHAOS_CHECK(state_ != nullptr, "fetch before execute");
  std::string key = array;
  std::transform(key.begin(), key.end(), key.begin(), ::toupper);
  ArrayInfo& a = lookup_array(*state_, key, 0);
  CHAOS_CHECK(a.type == ElemType::Real8, "fetch_real of INTEGER array");
  return a.real->to_global(p);
}

std::vector<i64> Instance::fetch_int(rt::Process& p,
                                     const std::string& array) {
  CHAOS_CHECK(state_ != nullptr, "fetch before execute");
  std::string key = array;
  std::transform(key.begin(), key.end(), key.begin(), ::toupper);
  ArrayInfo& a = lookup_array(*state_, key, 0);
  CHAOS_CHECK(a.type == ElemType::Integer, "fetch_int of REAL*8 array");
  return a.integer->to_global(p);
}

void Instance::overwrite_int(rt::Process& p, const std::string& array,
                             const std::vector<i64>& global_values) {
  CHAOS_CHECK(state_ != nullptr, "overwrite before execute");
  std::string key = array;
  std::transform(key.begin(), key.end(), key.begin(), ::toupper);
  ArrayInfo& a = lookup_array(*state_, key, 0);
  CHAOS_CHECK(a.type == ElemType::Integer, "overwrite_int of REAL*8 array");
  CHAOS_CHECK(static_cast<i64>(global_values.size()) == a.size,
              "overwrite_int: wrong length");
  a.integer->fill_by_global(
      [&](i64 g) { return global_values[static_cast<std::size_t>(g)]; });
  state_->registry.note_write(a.dad());
  rt::barrier(p);
}

}  // namespace chaos::lang
