#include "sim/ssa.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

#include "sim/engine/arena.hpp"
#include "util/rng.hpp"

namespace mrsc::sim {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Polls the cancellation hook every `abort_check_events` calls (a stride of
/// 0 acts as 1), starting with the first: call i polls when i % stride == 0.
/// The steppers call it once per loop iteration, so it polls after exactly
/// 0, stride, 2*stride, ... events. A countdown keeps the per-event cost to
/// one decrement and branch instead of a 64-bit division.
class AbortPoll {
 public:
  explicit AbortPoll(const SsaOptions& options)
      : hook_(options.abort ? &options.abort : nullptr),
        stride_(std::max<std::uint64_t>(options.abort_check_events, 1)) {}

  [[nodiscard]] bool due() {
    if (--countdown_ != 0) return false;
    countdown_ = stride_;
    return hook_ != nullptr && (*hook_)();
  }

 private:
  const std::function<bool()>* hook_;
  std::uint64_t stride_;
  std::uint64_t countdown_ = 1;
};

/// Indexed binary min-heap over (reaction, absolute firing time); supports
/// decrease/increase-key by reaction index, as the next-reaction method needs.
class IndexedTimeHeap {
 public:
  /// Builds the heap over `n` reactions; `initial_time(j)` is called once
  /// per reaction, in ascending j.
  template <class F>
  IndexedTimeHeap(std::size_t n, F&& initial_time)
      : times_(n), heap_(n), position_(n) {
    for (std::size_t i = 0; i < n; ++i) {
      times_[i] = initial_time(i);
      heap_[i] = i;
      position_[i] = i;
    }
    for (std::size_t i = n / 2; i-- > 0;) sift_down(i);
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t top_reaction() const { return heap_.front(); }
  [[nodiscard]] double top_time() const { return times_[heap_.front()]; }
  [[nodiscard]] double time(std::size_t reaction) const {
    return times_[reaction];
  }

  void update(std::size_t reaction, double new_time) {
    const double old_time = times_[reaction];
    times_[reaction] = new_time;
    const std::size_t pos = position_[reaction];
    if (new_time < old_time) {
      sift_up(pos);
    } else if (new_time > old_time) {
      sift_down(pos);
    }
  }

 private:
  void sift_up(std::size_t pos) {
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 2;
      if (times_[heap_[parent]] <= times_[heap_[pos]]) break;
      swap_nodes(parent, pos);
      pos = parent;
    }
  }

  void sift_down(std::size_t pos) {
    const std::size_t n = heap_.size();
    while (true) {
      const std::size_t left = 2 * pos + 1;
      const std::size_t right = left + 1;
      std::size_t smallest = pos;
      if (left < n && times_[heap_[left]] < times_[heap_[smallest]]) {
        smallest = left;
      }
      if (right < n && times_[heap_[right]] < times_[heap_[smallest]]) {
        smallest = right;
      }
      if (smallest == pos) break;
      swap_nodes(smallest, pos);
      pos = smallest;
    }
  }

  void swap_nodes(std::size_t a, std::size_t b) {
    std::swap(heap_[a], heap_[b]);
    position_[heap_[a]] = a;
    position_[heap_[b]] = b;
  }

  std::vector<double> times_;       // keyed by reaction index
  std::vector<std::size_t> heap_;   // heap of reaction indices
  std::vector<std::size_t> position_;  // reaction -> heap slot
};

/// Shared recording helper: samples counts (as concentrations) on a fixed
/// time grid using zero-order hold between events.
class SsaRecorder {
 public:
  SsaRecorder(const SsaOptions& options, std::size_t species_count)
      : options_(options),
        scratch_(species_count),
        trajectory_(species_count) {}

  void record_initial(std::span<const std::int64_t> counts) {
    sample(0.0, counts);
    next_sample_ = options_.record_interval;
  }

  /// Fills the sampling grid up to (but not including) `t_event` with the
  /// pre-event counts, implementing zero-order hold.
  void before_event(double t_event, std::span<const std::int64_t> counts) {
    while (next_sample_ < t_event && next_sample_ <= options_.t_end) {
      sample(next_sample_, counts);
      next_sample_ += options_.record_interval;
    }
  }

  void finish(double t_final, std::span<const std::int64_t> counts) {
    before_event(t_final, counts);
    sample(t_final, counts);
  }

  [[nodiscard]] Trajectory take() { return std::move(trajectory_); }

 private:
  void sample(double t, std::span<const std::int64_t> counts) {
    for (std::size_t i = 0; i < counts.size(); ++i) {
      scratch_[i] = static_cast<double>(counts[i]) / options_.omega;
    }
    trajectory_.append(t, scratch_);
  }

  const SsaOptions& options_;
  std::vector<double> scratch_;
  Trajectory trajectory_;
  double next_sample_ = 0.0;
};

// The three steppers read the network through the shared, read-only
// CompiledSystem and the run's propensity scale factors k * omega^(1-order),
// hoisted out of the event loop and carved from the run arena.

SsaResult run_direct(const CompiledSystem& system,
                     std::span<const double> scaled,
                     const SsaOptions& options,
                     std::vector<std::int64_t> counts) {
  util::Rng rng(options.seed);
  const std::size_t m = system.reaction_count();
  SsaResult result;
  SsaRecorder recorder(options, system.species_count());
  recorder.record_initial(counts);

  AbortPoll abort(options);
  std::vector<double> propensities(m);
  double t = 0.0;
  while (t < options.t_end && result.events < options.max_events) {
    if (abort.due()) {
      result.aborted = true;
      break;
    }
    double total = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      propensities[j] = system.propensity_scaled(j, counts, scaled[j]);
      total += propensities[j];
    }
    if (total <= 0.0) {
      result.exhausted = true;
      break;
    }
    const double dt = rng.exponential(total);
    const double t_next = t + dt;
    if (t_next > options.t_end) {
      t = options.t_end;
      break;
    }
    // Select the firing reaction proportionally to its propensity.
    double target = rng.uniform() * total;
    std::size_t chosen = m - 1;
    for (std::size_t j = 0; j < m; ++j) {
      target -= propensities[j];
      if (target <= 0.0) {
        chosen = j;
        break;
      }
    }
    recorder.before_event(t_next, counts);
    system.apply(chosen, counts);
    t = t_next;
    ++result.events;
  }
  result.hit_event_limit =
      result.events >= options.max_events && t < options.t_end;
  result.end_time = std::min(t, options.t_end);
  recorder.finish(result.end_time, counts);
  result.trajectory = recorder.take();
  result.final_counts = std::move(counts);
  return result;
}

SsaResult run_next_reaction(const CompiledSystem& system,
                            std::span<const double> scaled,
                            const SsaOptions& options,
                            std::vector<std::int64_t> counts, Arena& arena) {
  util::Rng rng(options.seed);
  const std::size_t m = system.reaction_count();
  SsaResult result;
  SsaRecorder recorder(options, system.species_count());
  recorder.record_initial(counts);
  AbortPoll abort(options);

  // blocked[j] counts j's reactants that sit below their stoichiometry; a
  // blocked reaction's propensity is exactly 0.0.
  const std::span<std::uint32_t> blocked = arena.alloc<std::uint32_t>(m);
  for (std::size_t j = 0; j < m; ++j) {
    const auto species = system.reactant_species(j);
    const auto stoich = system.reactant_stoich(j);
    for (std::size_t k = 0; k < species.size(); ++k) {
      if (counts[species[k]] < static_cast<std::int64_t>(stoich[k])) {
        ++blocked[j];
      }
    }
  }

  std::vector<double> propensities(m);
  IndexedTimeHeap heap(m, [&](std::size_t j) {
    propensities[j] = system.propensity_scaled(j, counts, scaled[j]);
    return propensities[j] > 0.0 ? rng.exponential(propensities[j])
                                 : kInfinity;
  });

  double t = 0.0;
  while (result.events < options.max_events) {
    if (abort.due()) {
      result.aborted = true;
      break;
    }
    const std::size_t fired = heap.top_reaction();
    const double t_next = heap.top_time();
    if (t_next == kInfinity) {
      result.exhausted = true;
      break;
    }
    if (t_next > options.t_end) {
      t = options.t_end;
      break;
    }
    recorder.before_event(t_next, counts);
    // Apply the firing, moving the blocked counts of the readers of every
    // species whose count crossed one of their thresholds. A change that
    // stays at or above the species' largest reactant stoichiometry crosses
    // none.
    const auto changed = system.net_species(fired);
    const auto delta = system.net_delta(fired);
    for (std::size_t k = 0; k < changed.size(); ++k) {
      const std::uint32_t i = changed[k];
      const std::int64_t before = counts[i];
      const std::int64_t now = before + delta[k];
      counts[i] = now;
      if (std::min(before, now) >=
          static_cast<std::int64_t>(system.max_reactant_stoich(i))) {
        continue;
      }
      const auto readers = system.dependents_of_species(i);
      const auto need = system.reader_stoich(i);
      for (std::size_t r = 0; r < readers.size(); ++r) {
        const std::int64_t threshold = need[r];
        blocked[readers[r]] += static_cast<std::uint32_t>(now < threshold) -
                               static_cast<std::uint32_t>(before < threshold);
      }
    }
    t = t_next;
    ++result.events;

    // Update every dependent reaction's propensity and firing time.
    for (std::uint32_t dep : system.affected_reactions(fired)) {
      // Still blocked and already at 0.0: the recompute would give 0.0 again
      // and an infinite firing time, with no draw and no heap move.
      if (blocked[dep] != 0 && propensities[dep] == 0.0) continue;
      double a_new;
      if (dep == fired && !system.affects_own_reactants(fired)) {
        // Pure catalysis: firing left fired's own reactant counts untouched,
        // so its propensity is exactly the stored value — skip the recompute.
        // (It still needs a fresh exponential draw below.)
        a_new = propensities[fired];
      } else {
        a_new = system.propensity_scaled(dep, counts, scaled[dep]);
      }
      double new_time;
      if (dep == fired) {
        new_time = a_new > 0.0 ? t + rng.exponential(a_new) : kInfinity;
      } else {
        const double a_old = propensities[dep];
        const double old_time = heap.time(dep);
        if (a_new <= 0.0) {
          new_time = kInfinity;
        } else if (a_old <= 0.0 || old_time == kInfinity) {
          new_time = t + rng.exponential(a_new);
        } else {
          // Gibson-Bruck reuse: rescale the residual waiting time.
          new_time = t + (a_old / a_new) * (old_time - t);
        }
      }
      propensities[dep] = a_new;
      heap.update(dep, new_time);
    }
  }
  result.hit_event_limit =
      result.events >= options.max_events && t < options.t_end;
  result.end_time = std::min(t, options.t_end);
  recorder.finish(result.end_time, counts);
  result.trajectory = recorder.take();
  result.final_counts = std::move(counts);
  return result;
}

SsaResult run_tau_leaping(const CompiledSystem& system,
                          std::span<const double> scaled,
                          const SsaOptions& options,
                          std::vector<std::int64_t> counts) {
  util::Rng rng(options.seed);
  const std::size_t m = system.reaction_count();
  SsaResult result;
  SsaRecorder recorder(options, system.species_count());
  recorder.record_initial(counts);

  double t = 0.0;
  while (t < options.t_end && result.events < options.max_events) {
    if (options.abort && options.abort()) {  // every leap is coarse enough
      result.aborted = true;
      break;
    }
    const double tau = std::min(options.tau, options.t_end - t);
    if (t + tau <= t) break;  // leap below one ulp of t: cannot advance
    bool any_active = false;
    std::uint64_t fired_this_leap = 0;
    for (std::size_t j = 0; j < m; ++j) {
      const double a = system.propensity_scaled(j, counts, scaled[j]);
      if (a <= 0.0) continue;
      any_active = true;
      std::uint64_t firings = rng.poisson(a * tau);
      // Cap the batch by the available reactants: an uncapped overshoot
      // would drive counts negative, and naive clamping *mints* molecules —
      // a fast reversible pair (e.g. the feedback dimers 2G <-> I) then
      // amplifies the surplus into a runaway.
      const auto species = system.reactant_species(j);
      const auto stoich = system.reactant_stoich(j);
      for (std::size_t k = 0; k < species.size(); ++k) {
        const std::uint64_t cap =
            static_cast<std::uint64_t>(counts[species[k]] / stoich[k]);
        firings = std::min(firings, cap);
      }
      for (std::uint64_t f = 0; f < firings; ++f) {
        system.apply(j, counts);
      }
      fired_this_leap += firings;
    }
    if (!any_active) {
      result.exhausted = true;
      break;
    }
    recorder.before_event(t + tau, counts);
    t += tau;
    result.events += fired_this_leap;
  }
  result.hit_event_limit =
      result.events >= options.max_events && t < options.t_end;
  result.end_time = std::min(t, options.t_end);
  recorder.finish(result.end_time, counts);
  result.trajectory = recorder.take();
  result.final_counts = std::move(counts);
  return result;
}

void validate_options(std::size_t species_count, const SsaOptions& options,
                      const std::vector<std::int64_t>& initial_counts) {
  if (initial_counts.size() != species_count) {
    throw std::invalid_argument("simulate_ssa: initial counts size mismatch");
  }
  if (options.t_end <= 0.0 || options.omega <= 0.0 ||
      options.record_interval <= 0.0) {
    throw std::invalid_argument(
        "simulate_ssa: t_end, omega, record_interval must be positive");
  }
  if (options.method == SsaMethod::kTauLeaping && options.tau <= 0.0) {
    throw std::invalid_argument("simulate_ssa: tau must be positive");
  }
}

}  // namespace

std::vector<std::int64_t> to_counts(std::span<const double> concentrations,
                                    double omega) {
  std::vector<std::int64_t> counts(concentrations.size());
  for (std::size_t i = 0; i < concentrations.size(); ++i) {
    counts[i] = static_cast<std::int64_t>(
        std::llround(concentrations[i] * omega));
    if (counts[i] < 0) counts[i] = 0;
  }
  return counts;
}

SsaResult simulate_ssa(const core::ReactionNetwork& network,
                       const SsaOptions& options,
                       std::vector<double> initial_concentrations) {
  if (initial_concentrations.empty()) {
    initial_concentrations = network.initial_state();
  }
  const CompiledSystem system(network);
  return simulate_ssa(system, options,
                      to_counts(initial_concentrations, options.omega));
}

SsaResult simulate_ssa(const CompiledSystem& system, const SsaOptions& options,
                       std::vector<std::int64_t> initial_counts) {
  validate_options(system.species_count(), options, initial_counts);
  Arena arena;
  const std::span<double> scaled =
      arena.alloc<double>(system.reaction_count());
  system.scaled_rates(options.omega, scaled);
  switch (options.method) {
    case SsaMethod::kDirect:
      return run_direct(system, scaled, options, std::move(initial_counts));
    case SsaMethod::kNextReaction:
      return run_next_reaction(system, scaled, options,
                               std::move(initial_counts), arena);
    case SsaMethod::kTauLeaping:
      return run_tau_leaping(system, scaled, options,
                             std::move(initial_counts));
  }
  throw std::logic_error("simulate_ssa: unknown method");
}

}  // namespace mrsc::sim
