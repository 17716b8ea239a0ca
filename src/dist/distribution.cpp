#include "dist/distribution.hpp"

#include <algorithm>

#include "rt/collectives.hpp"

namespace chaos::dist {

namespace {

/// Merges the ascending runs segment(0..P-1), whose lengths @p offsets
/// prefixes, into one ascending vector: pairwise and bottom-up, the first
/// level reading the runs where they lie. O(n log P).
template <typename Segment>
std::vector<i64> merge_ascending_runs(const Segment& segment,
                                      std::span<const i64> offsets) {
  const std::size_t runs = offsets.size() - 1;
  for (std::size_t s = 0; s < runs; ++s) {
    const auto run = segment(s);
    CHAOS_CHECK(std::is_sorted(run.begin(), run.end()),
                "irregular_from_map: an incoming run is not ascending");
  }
  std::vector<i64> merged(static_cast<std::size_t>(offsets.back()));
  std::vector<i64> bounds;  // run boundaries inside `merged`
  bounds.push_back(0);
  for (std::size_t s = 0; s < runs; s += 2) {
    const auto a = segment(s);
    const auto b = s + 1 < runs ? segment(s + 1) : decltype(a){};
    std::merge(a.begin(), a.end(), b.begin(), b.end(),
               merged.begin() + bounds.back());
    bounds.push_back(bounds.back() + static_cast<i64>(a.size() + b.size()));
  }
  std::vector<i64> other;
  while (bounds.size() > 2) {
    other.resize(merged.size());
    std::size_t kept = 1;
    for (std::size_t k = 0; k + 1 < bounds.size(); k += 2) {
      const auto lo = merged.begin() + bounds[k];
      const auto mid = merged.begin() + bounds[k + 1];
      const auto hi =
          k + 2 < bounds.size() ? merged.begin() + bounds[k + 2] : mid;
      std::merge(lo, mid, mid, hi, other.begin() + bounds[k]);
      bounds[kept++] = bounds[std::min(k + 2, bounds.size() - 1)];
    }
    bounds.resize(kept);
    merged.swap(other);
  }
  return merged;
}

}  // namespace

std::shared_ptr<const Distribution> Distribution::block(rt::Process& p,
                                                        i64 n) {
  CHAOS_CHECK(n >= 0, "BLOCK: negative extent");
  auto d = std::shared_ptr<Distribution>(new Distribution());
  const i64 bs = n == 0 ? 1 : (n + p.nprocs() - 1) / p.nprocs();
  d->dad_ = Dad{DistKind::Block, n, p.nprocs(), bs, rt::collective_counter(p)};
  d->my_rank_ = p.rank();
  return d;
}

std::shared_ptr<const Distribution> Distribution::cyclic(rt::Process& p,
                                                         i64 n) {
  CHAOS_CHECK(n >= 0, "CYCLIC: negative extent");
  auto d = std::shared_ptr<Distribution>(new Distribution());
  d->dad_ = Dad{DistKind::Cyclic, n, p.nprocs(), 1, rt::collective_counter(p)};
  d->my_rank_ = p.rank();
  return d;
}

std::shared_ptr<const Distribution> Distribution::block_cyclic(
    rt::Process& p, i64 n, i64 block_size) {
  CHAOS_CHECK(n >= 0, "BLOCK_CYCLIC: negative extent");
  CHAOS_CHECK(block_size >= 1, "BLOCK_CYCLIC: block size must be >= 1");
  auto d = std::shared_ptr<Distribution>(new Distribution());
  d->dad_ = Dad{DistKind::BlockCyclic, n, p.nprocs(), block_size,
                rt::collective_counter(p)};
  d->my_rank_ = p.rank();
  return d;
}

std::shared_ptr<const Distribution> Distribution::irregular_from_map(
    rt::Process& p, std::span<const i64> map_slice,
    const Distribution& map_dist, i64 page_size, bool replicated) {
  CHAOS_CHECK(static_cast<i64>(map_slice.size()) == map_dist.my_local_size(),
              "irregular_from_map: map slice not aligned with the map "
              "distribution");
  const i64 n = map_dist.size();

  // Route each global to its assigned owner in one CSR exchange.
  const auto np = static_cast<std::size_t>(p.nprocs());
  std::vector<i64> offsets(np + 1, 0);
  for (const i64 owner : map_slice) {
    CHAOS_CHECK(owner >= 0 && owner < p.nprocs(),
                "irregular_from_map: map names process " +
                    std::to_string(owner) + " outside the machine");
    ++offsets[static_cast<std::size_t>(owner) + 1];
  }
  for (std::size_t r = 0; r < np; ++r) offsets[r + 1] += offsets[r];
  std::vector<i64> cursor(offsets.begin(), offsets.end() - 1);
  std::vector<i64> outgoing(map_slice.size());
  for (std::size_t l = 0; l < map_slice.size(); ++l) {
    outgoing[static_cast<std::size_t>(cursor[static_cast<std::size_t>(
        map_slice[l])]++)] = map_dist.my_global_of(static_cast<i64>(l));
  }

  // Every source walks its segment in ascending local order, and local
  // order is ascending global order for all four kinds, so each incoming
  // run is already sorted: a P-way merge, read straight out of the peers'
  // segments, replaces a full sort.
  auto d = std::shared_ptr<Distribution>(new Distribution());
  d->my_rank_ = p.rank();
  std::vector<i64> in_offsets;
  rt::alltoallv_csr_read<i64>(
      p, outgoing, offsets, in_offsets, [&](const auto& segment) {
        d->my_globals_ = merge_ascending_runs(segment, in_offsets);
      });
  p.clock().charge_ops(static_cast<i64>(d->my_globals_.size()),
                       p.params().mem_us_per_word);

  d->local_sizes_ = rt::allgather(p, static_cast<i64>(d->my_globals_.size()));
  d->table_ =
      TranslationTable::build(p, n, d->my_globals_, page_size, replicated);
  d->dad_ = Dad{DistKind::Irregular, n, p.nprocs(), page_size,
                rt::collective_counter(p)};
  return d;
}

i64 Distribution::local_size(int rank) const {
  CHAOS_CHECK(rank >= 0 && rank < dad_.nprocs, "local_size: bad rank");
  const i64 n = dad_.size;
  const i64 P = dad_.nprocs;
  const i64 r = rank;
  switch (dad_.kind) {
    case DistKind::Block: {
      const i64 bs = dad_.param;
      return std::clamp<i64>(n - r * bs, 0, bs);
    }
    case DistKind::Cyclic:
      return r < n ? (n - r + P - 1) / P : 0;
    case DistKind::BlockCyclic: {
      const i64 b = dad_.param;
      const i64 nb = (n + b - 1) / b;  // total bricks (last may be partial)
      if (r >= nb) return 0;
      const i64 bricks = (nb - 1 - r) / P + 1;
      const i64 last_brick = nb - 1;
      if (last_brick % P == r) {
        return (bricks - 1) * b + (n - last_brick * b);
      }
      return bricks * b;
    }
    case DistKind::Irregular:
      return local_sizes_[static_cast<std::size_t>(rank)];
  }
  return 0;
}

std::vector<i64> Distribution::my_globals() const {
  if (dad_.kind == DistKind::Irregular) return my_globals_;
  std::vector<i64> out;
  (void)my_globals_view(out);
  return out;
}

std::span<const i64> Distribution::my_globals_view(
    std::vector<i64>& scratch) const {
  if (dad_.kind == DistKind::Irregular) return my_globals_;
  scratch.resize(static_cast<std::size_t>(my_local_size()));
  for (std::size_t l = 0; l < scratch.size(); ++l) {
    scratch[l] = global_of(my_rank_, static_cast<i64>(l));
  }
  return scratch;
}

i64 Distribution::owner_of(i64 g) const {
  CHAOS_CHECK(g >= 0 && g < dad_.size, "owner_of: index out of range");
  switch (dad_.kind) {
    case DistKind::Block: return g / dad_.param;
    case DistKind::Cyclic: return g % dad_.nprocs;
    case DistKind::BlockCyclic: return (g / dad_.param) % dad_.nprocs;
    case DistKind::Irregular: break;
  }
  throw ChaosError(
      "owner_of: no closed form for IRREGULAR distributions — use locate()");
}

i64 Distribution::local_index_of(i64 g) const {
  CHAOS_CHECK(g >= 0 && g < dad_.size, "local_index_of: index out of range");
  switch (dad_.kind) {
    case DistKind::Block: return g % dad_.param;
    case DistKind::Cyclic: return g / dad_.nprocs;
    case DistKind::BlockCyclic: {
      const i64 b = dad_.param;
      return (g / b / dad_.nprocs) * b + g % b;
    }
    case DistKind::Irregular: break;
  }
  throw ChaosError(
      "local_index_of: no closed form for IRREGULAR distributions — use "
      "locate()");
}

std::vector<Entry> Distribution::locate(rt::Process& p,
                                        std::span<const i64> queries) const {
  std::vector<Entry> out;
  DereferenceWorkspace ws;  // empty until an IRREGULAR dereference grows it
  locate_into(p, queries, out, ws);
  return out;
}

void Distribution::locate_into(rt::Process& p, std::span<const i64> queries,
                               std::vector<Entry>& out,
                               DereferenceWorkspace& ws,
                               i64 extra_charged_queries,
                               bool queries_distinct) const {
  if (dad_.kind == DistKind::Irregular) {
    table_->dereference_into(p, queries, out, ws, extra_charged_queries,
                             queries_distinct);
    return;
  }
  locate_closed_form(p, queries, out, extra_charged_queries);
}

void Distribution::locate_closed_form(rt::Process& p,
                                      std::span<const i64> queries,
                                      std::vector<Entry>& out,
                                      i64 extra_charged_queries) const {
  out.resize(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const i64 g = queries[i];
    out[i] = Entry{static_cast<i32>(owner_of(g)), local_index_of(g)};
  }
  p.clock().charge_ops(static_cast<i64>(queries.size()) +
                           extra_charged_queries,
                       p.params().mem_us_per_word);
}

void Distribution::locate_flat_into(rt::Process& p,
                                    std::span<const i64> queries,
                                    std::vector<Entry>& out,
                                    DereferenceWorkspace& ws,
                                    i64 extra_charged_queries) const {
  if (dad_.kind == DistKind::Irregular) {
    table_->dereference_flat(p, queries, out, ws, extra_charged_queries);
    return;
  }
  locate_closed_form(p, queries, out, extra_charged_queries);
}

}  // namespace chaos::dist
