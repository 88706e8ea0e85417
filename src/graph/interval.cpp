#include "graph/interval.hpp"

#include <cstdint>
#include <functional>
#include <numeric>
#include <queue>
#include <string>
#include <utility>

#include "support/check.hpp"

namespace lbist {

namespace {

constexpr std::uint32_t kNil = UINT32_MAX;

/// Ranks of the interval endpoints: the distinct birth and death values in
/// ascending order, each vertex's own ranks in them, and the bounds the
/// Helly test searches below.
struct EndpointRanks {
  std::vector<int> births;  ///< distinct birth values, ascending
  std::vector<int> deaths;  ///< distinct death values, ascending
  std::vector<std::uint32_t> birth_rank;
  std::vector<std::uint32_t> death_rank;
  /// Per vertex v: the number of distinct births below d_v.
  std::vector<std::uint32_t> births_before;
  /// Per birth rank i: the number of distinct deaths at or below births[i].
  std::vector<std::uint32_t> deaths_upto;

  explicit EndpointRanks(std::span<const LiveInterval> iv) {
    const std::size_t n = iv.size();
    LBIST_CHECK(n < kNil, "too many intervals");
    births.reserve(n);
    deaths.reserve(n);
    for (std::size_t v = 0; v < n; ++v) {
      LBIST_CHECK(iv[v].birth < iv[v].death,
                  "live interval of vertex " + std::to_string(v) + " is (" +
                      std::to_string(iv[v].birth) + ", " +
                      std::to_string(iv[v].death) + "], which is empty");
      births.push_back(iv[v].birth);
      deaths.push_back(iv[v].death);
    }
    for (std::vector<int>* values : {&births, &deaths}) {
      std::sort(values->begin(), values->end());
      values->erase(std::unique(values->begin(), values->end()),
                    values->end());
    }
    auto index = [](const std::vector<int>& values, auto it) {
      return static_cast<std::uint32_t>(it - values.begin());
    };
    birth_rank.resize(n);
    death_rank.resize(n);
    births_before.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      const auto [b, d] = iv[v];
      birth_rank[v] =
          index(births, std::lower_bound(births.begin(), births.end(), b));
      death_rank[v] =
          index(deaths, std::lower_bound(deaths.begin(), deaths.end(), d));
      births_before[v] =
          index(births, std::lower_bound(births.begin(), births.end(), d));
    }
    deaths_upto.resize(births.size());
    for (std::size_t i = 0; i < births.size(); ++i) {
      deaths_upto[i] = index(
          deaths, std::upper_bound(deaths.begin(), deaths.end(), births[i]));
    }
  }
};

/// Ranks [0, size) under deletion, answering "largest alive rank below k"
/// by union-find with path halving.  Slot s stands for rank s-1; a deleted
/// slot links to the one below it, and slot 0 is a sentinel that maps to
/// kNil.
class AliveBelow {
 public:
  explicit AliveBelow(std::size_t size) : link_(size + 1) {
    std::iota(link_.begin(), link_.end(), std::uint32_t{0});
  }

  void erase(std::uint32_t rank) { link_[rank + 1] = rank; }

  [[nodiscard]] std::uint32_t find(std::uint32_t k) {
    std::uint32_t slot = k;
    while (link_[slot] != slot) {
      link_[slot] = link_[link_[slot]];
      slot = link_[slot];
    }
    return slot - 1;
  }

 private:
  std::vector<std::uint32_t> link_;
};

/// Blocked vertices keyed by endpoint rank: intrusive doubly linked lists
/// in which each vertex owns one node, so a vertex waits on at most one
/// rank and memory stays O(n + ranks).
class WatchLists {
 public:
  WatchLists(std::size_t ranks, std::size_t vertices)
      : head_(ranks, kNil),
        prev_(vertices, kNil),
        next_(vertices, kNil),
        key_(vertices, kNil) {}

  void watch(std::uint32_t v, std::uint32_t rank) {
    unwatch(v);
    key_[v] = rank;
    next_[v] = head_[rank];
    if (head_[rank] != kNil) prev_[head_[rank]] = v;
    head_[rank] = v;
  }

  void unwatch(std::uint32_t v) {
    if (key_[v] == kNil) return;
    if (prev_[v] != kNil) {
      next_[prev_[v]] = next_[v];
    } else {
      head_[key_[v]] = next_[v];
    }
    if (next_[v] != kNil) prev_[next_[v]] = prev_[v];
    prev_[v] = next_[v] = key_[v] = kNil;
  }

  /// Empties the list of `rank`, calling `visit` on each vertex after
  /// unlinking it; `visit` may re-watch the vertex elsewhere.
  template <typename Visit>
  void drain(std::uint32_t rank, Visit&& visit) {
    std::uint32_t v = head_[rank];
    head_[rank] = kNil;
    while (v != kNil) {
      const std::uint32_t next = next_[v];
      prev_[v] = next_[v] = key_[v] = kNil;
      visit(v);
      v = next;
    }
  }

 private:
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> prev_;
  std::vector<std::uint32_t> next_;
  std::vector<std::uint32_t> key_;
};

}  // namespace

std::vector<std::size_t> interval_elimination_order(
    std::span<const LiveInterval> intervals,
    const std::vector<std::size_t>& priority_rank) {
  const std::size_t n = intervals.size();
  LBIST_CHECK(priority_rank.empty() || priority_rank.size() == n,
              "priority_rank must cover every vertex");
  auto rank = [&](std::size_t v) {
    return priority_rank.empty() ? v : priority_rank[v];
  };
  const EndpointRanks ep(intervals);

  // Alive intervals per birth rank and per death rank; a rank leaves its
  // AliveBelow set when its count reaches zero.
  std::vector<std::uint32_t> births_alive(ep.births.size(), 0);
  std::vector<std::uint32_t> deaths_alive(ep.deaths.size(), 0);
  for (std::size_t v = 0; v < n; ++v) {
    ++births_alive[ep.birth_rank[v]];
    ++deaths_alive[ep.death_rank[v]];
  }
  AliveBelow birth_below(ep.births.size());
  AliveBelow death_below(ep.deaths.size());

  // v is blocked iff an alive neighbour dies no later than another is born
  // inside v: with a = the latest alive birth below d_v, iff some alive
  // death lies in (b_v, births[a]].  The witness pair is a and the latest
  // such death, the pair likeliest to outlive the others; v waits on both
  // ranks and is re-tested when either empties.  Once simplicial a vertex
  // stays so (elimination only shrinks neighbourhoods), so it enters the
  // ready heap exactly once.
  WatchLists birth_watch(ep.births.size(), n);
  WatchLists death_watch(ep.deaths.size(), n);
  using HeapItem = std::pair<std::size_t, std::size_t>;  // (rank, vertex)
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;

  auto test = [&](std::uint32_t v) {
    const std::uint32_t a = birth_below.find(ep.births_before[v]);
    const std::uint32_t d = death_below.find(ep.deaths_upto[a]);
    if (d != kNil && ep.deaths[d] > intervals[v].birth) {
      birth_watch.watch(v, a);
      death_watch.watch(v, d);
      return;
    }
    birth_watch.unwatch(v);
    death_watch.unwatch(v);
    heap.emplace(rank(v), v);
  };

  for (std::size_t v = 0; v < n; ++v) test(static_cast<std::uint32_t>(v));

  std::vector<std::size_t> order;
  order.reserve(n);
  while (order.size() < n) {
    LBIST_CHECK(!heap.empty(), "interval graph without a simplicial vertex");
    const std::size_t v = heap.top().second;
    heap.pop();
    order.push_back(v);
    // Erase both emptied ranks before re-testing anyone, so no re-test
    // settles on a rank that is about to go.
    const std::uint32_t b = ep.birth_rank[v];
    const std::uint32_t d = ep.death_rank[v];
    const bool birth_gone = --births_alive[b] == 0;
    const bool death_gone = --deaths_alive[d] == 0;
    if (birth_gone) birth_below.erase(b);
    if (death_gone) death_below.erase(d);
    if (birth_gone) birth_watch.drain(b, test);
    if (death_gone) death_watch.drain(d, test);
  }
  return order;
}

std::vector<std::size_t> interval_max_clique_through_vertex(
    std::span<const LiveInterval> intervals) {
  const std::size_t n = intervals.size();
  IntervalLoad load(intervals);
  for (std::size_t v = 0; v < n; ++v) load.add(v);
  std::vector<std::size_t> mcs(n);
  for (std::size_t v = 0; v < n; ++v) mcs[v] = load.max_live(v);
  return mcs;
}

IntervalLoad::IntervalLoad(std::span<const LiveInterval> intervals) {
  const EndpointRanks ep(intervals);
  // Leaf i counts the intervals live at the step just after births[i]:
  // those with b_u <= births[i] < d_u, the ranks [birth_rank, births_before).
  lo_ = ep.birth_rank;
  hi_ = ep.births_before;
  leaves_ = static_cast<std::uint32_t>(ep.births.size());
  max_.assign(4 * std::max<std::size_t>(leaves_, 1), 0);
  whole_.assign(max_.size(), 0);
}

void IntervalLoad::add(std::size_t node, std::uint32_t nl, std::uint32_t nr,
                       std::uint32_t l, std::uint32_t r) {
  if (r <= nl || nr <= l) return;
  if (l <= nl && nr <= r) {
    ++max_[node];
    ++whole_[node];
    return;
  }
  const std::uint32_t mid = nl + (nr - nl) / 2;
  add(2 * node, nl, mid, l, r);
  add(2 * node + 1, mid, nr, l, r);
  max_[node] = std::max(max_[2 * node], max_[2 * node + 1]) + whole_[node];
}

std::size_t IntervalLoad::query(std::size_t node, std::uint32_t nl,
                                std::uint32_t nr, std::uint32_t l,
                                std::uint32_t r) const {
  if (r <= nl || nr <= l) return 0;
  if (l <= nl && nr <= r) return max_[node];
  const std::uint32_t mid = nl + (nr - nl) / 2;
  return whole_[node] + std::max(query(2 * node, nl, mid, l, r),
                                 query(2 * node + 1, mid, nr, l, r));
}

}  // namespace lbist
