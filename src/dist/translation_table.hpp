// The distributed translation table (PARTI/CHAOS): maps global index ->
// (owning process, local offset) for IRREGULAR distributions, where no
// closed form exists. Two organizations, chosen at build time:
//
//   paged      — the table is split into fixed-size pages of consecutive
//                globals; page pid lives on process pid % P. O(N/P) memory
//                per process. dereference() batches all lookups into ONE
//                request/response exchange round (two CSR exchanges, each
//                charged as an rt::alltoallv) with per-destination
//                deduplicated request segments.
//   replicated — every process stores the whole table. O(N) memory,
//                zero-communication dereference.
//
// The layout and batching protocol are documented in DESIGN.md §3–4.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "rt/machine.hpp"

namespace chaos::dist {

class DereferenceWorkspace;

/// One resolved global reference: owning process and local offset there.
struct Entry {
  i32 proc = -1;
  i64 local = -1;
};

class TranslationTable {
 public:
  /// Per-process dereference accounting; the bench layer reads this to show
  /// that replicated tables answer with zero exchange rounds while paged
  /// tables spend exactly one round per dereference call.
  struct Stats {
    i64 dereference_calls = 0;
    i64 alltoallv_rounds = 0;  ///< request+response exchanges performed
    i64 queries = 0;
    i64 remote_queries = 0;  ///< queries whose page lives on another process
    /// Distinct remote targets actually shipped on the wire (after the
    /// per-home sort+unique): the request-side alltoallv word count. The
    /// inspector bench reads this to show the translation-cache traffic cut.
    i64 wire_queries = 0;
    /// dereference_flat accounting, kept separate so existing consumers of
    /// the nested counters never see flat traffic folded in.
    i64 flat_calls = 0;
    i64 flat_collectives = 0;  ///< 3 per paged flat call, 0 replicated
    i64 flat_queries = 0;
    i64 flat_wire_queries = 0;  ///< post-dedup request words, flat path
  };

  /// Collective. Every process contributes the globals it owns, in its local
  /// storage order (local index of mine[l] is l). Validates the claims form
  /// an exact partition of [0, n): double claims, unclaimed indices and
  /// out-of-range claims all throw ChaosError.
  [[nodiscard]] static std::shared_ptr<const TranslationTable> build(
      rt::Process& p, i64 n, std::span<const i64> mine, i64 page_size = 4096,
      bool replicated = false);

  /// Collective (paged mode performs one exchange round even when this
  /// process has no remote queries — peers may). answers[i] resolves
  /// queries[i]; duplicate and empty query lists are legal and lists may
  /// differ in length across processes. @p extra_charged_queries is folded
  /// into the final clock charge (see Distribution::locate_into).
  [[nodiscard]] std::vector<Entry> dereference(
      rt::Process& p, std::span<const i64> queries,
      i64 extra_charged_queries = 0) const;

  /// Collective. dereference() into caller-owned buffers: the same nested
  /// protocol (one request and one response rt::alltoallv_csr, each charged
  /// and counted exactly as an rt::alltoallv), the same answers, stats and
  /// modeled charge, staged in @p ws so a warm repeat call allocates
  /// nothing. With @p queries_distinct (the caller vouches that no query
  /// repeats, as a dedup pass or a distribution's own globals guarantee)
  /// the per-home sort is skipped and answers resolve by position instead
  /// of binary search. The wire carries the same number of words either
  /// way, so the modeled charge is unchanged.
  void dereference_into(rt::Process& p, std::span<const i64> queries,
                        std::vector<Entry>& out, DereferenceWorkspace& ws,
                        i64 extra_charged_queries = 0,
                        bool queries_distinct = false) const;

  /// Collective, zero-allocation variant of dereference(): the flat CSR
  /// protocol (DESIGN.md §9) answers the same queries through one counts
  /// rt::alltoall plus two rt::alltoallv_flat exchanges, staging everything
  /// in @p ws — a warm repeat call performs 0 heap allocations. Answers are
  /// identical to dereference(); the modeled charge is NOT: the flat
  /// protocol spends 3 collectives where the nested path spends 2, so this
  /// is an opt-in entry point with its own charge, never a drop-in swap
  /// (existing modeled virtual times stay bit-identical as long as callers
  /// keep using dereference()). Out-of-range queries throw the same error
  /// as the nested path.
  void dereference_flat(rt::Process& p, std::span<const i64> queries,
                        std::vector<Entry>& out, DereferenceWorkspace& ws,
                        i64 extra_charged_queries = 0) const;

  [[nodiscard]] i64 size() const { return n_; }
  [[nodiscard]] i64 page_size() const { return page_size_; }
  [[nodiscard]] bool replicated() const { return replicated_; }
  [[nodiscard]] i64 local_count(int rank) const {
    return local_counts_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  TranslationTable() = default;

  // Page arithmetic shifts instead of dividing when the page size or the
  // process count is a power of two (64-bit division is the dominant cost
  // of a table touch otherwise).
  [[nodiscard]] i64 page_of(i64 g) const {
    return page_shift_ >= 0 ? g >> page_shift_ : g / page_size_;
  }
  [[nodiscard]] int home_of(i64 g) const {
    const i64 pid = page_of(g);
    return static_cast<int>(proc_shift_ >= 0 ? pid & (nprocs_ - 1)
                                             : pid % nprocs_);
  }
  /// Flat slot of global @p g inside this process's page storage (the
  /// caller guarantees home_of(g) == my rank).
  [[nodiscard]] std::size_t my_slot(i64 g) const {
    const i64 pid = page_of(g);
    const i64 round = proc_shift_ >= 0 ? pid >> proc_shift_ : pid / nprocs_;
    return static_cast<std::size_t>(round * page_size_ +
                                    (g - pid * page_size_));
  }

  i64 n_ = 0;
  i64 page_size_ = 4096;
  bool replicated_ = false;
  int nprocs_ = 0;
  int my_rank_ = 0;
  int page_shift_ = -1;  ///< log2(page_size_) if a power of two, else -1
  int proc_shift_ = -1;  ///< log2(nprocs_) if a power of two, else -1
  std::vector<i64> local_counts_;  ///< owned-element count per rank

  /// Entry storage. Replicated: indexed directly by global. Paged: my pages
  /// concatenated in page order, each padded to page_size_ (my_slot()).
  std::vector<i32> proc_;
  std::vector<i64> local_;

  mutable Stats stats_;
};

}  // namespace chaos::dist
