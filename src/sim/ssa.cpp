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

// The three steppers below are templated over an evaluator so the legacy
// (MassActionSystem) and compiled (CompiledSystem) engines share one stepper
// implementation. Both evaluators perform identical floating-point operation
// sequences; the engines differ only in data layout and in where the
// propensity scale factor k * omega^(1-order) is computed (per call vs hoisted
// per run), neither of which can change a bit of the result.

/// Legacy evaluator: forwards to MassActionSystem, recomputing the propensity
/// scale factor on every call exactly as the original code did. It derives
/// the species -> (reader, stoichiometry) table that CompiledSystem stores
/// from the reactant lists.
class LegacyEval {
 public:
  LegacyEval(const MassActionSystem& system, double omega)
      : system_(system),
        omega_(omega),
        readers_(system.species_count()),
        max_stoich_(system.species_count(), 0) {
    for (std::size_t j = 0; j < system.reaction_count(); ++j) {
      for (const auto& [idx, stoich] : system.compiled_reaction(j).reactants) {
        readers_[idx].emplace_back(static_cast<std::uint32_t>(j), stoich);
        max_stoich_[idx] = std::max(max_stoich_[idx], stoich);
      }
    }
  }

  [[nodiscard]] std::size_t reaction_count() const {
    return system_.reaction_count();
  }
  [[nodiscard]] std::size_t species_count() const {
    return system_.species_count();
  }
  [[nodiscard]] double propensity(std::size_t j,
                                  std::span<const std::int64_t> n) const {
    return system_.propensity(j, n, omega_);
  }
  void apply(std::size_t j, std::span<std::int64_t> n) const {
    system_.apply(j, n);
  }
  [[nodiscard]] std::span<const std::uint32_t> affected(std::size_t j) const {
    return system_.affected_reactions(j);
  }
  [[nodiscard]] bool affects_own_reactants(std::size_t j) const {
    return system_.affects_own_reactants(j);
  }
  template <class F>
  void for_each_reactant(std::size_t j, F&& f) const {
    for (const auto& [idx, stoich] : system_.compiled_reaction(j).reactants) {
      f(idx, stoich);
    }
  }
  template <class F>
  void for_each_net_change(std::size_t j, F&& f) const {
    for (const auto& [idx, delta] : system_.compiled_reaction(j).net_changes) {
      f(idx, delta);
    }
  }
  template <class F>
  void for_each_reader(std::size_t i, F&& f) const {
    for (const auto& [reaction, stoich] : readers_[i]) f(reaction, stoich);
  }
  [[nodiscard]] std::uint32_t max_reactant_stoich(std::size_t i) const {
    return max_stoich_[i];
  }

 private:
  const MassActionSystem& system_;
  double omega_;
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> readers_;
  std::vector<std::uint32_t> max_stoich_;
};

/// Compiled evaluator: CSR tables plus per-run hoisted scale factors carved
/// from the run arena. The referenced CompiledSystem is strictly read-only,
/// so one instance is safely shared across concurrent replicates.
class CompiledEval {
 public:
  CompiledEval(const CompiledSystem& system, double omega, Arena& arena)
      : system_(system),
        scaled_(arena.alloc<double>(system.reaction_count())) {
    system_.scaled_rates(omega, scaled_);
  }

  [[nodiscard]] std::size_t reaction_count() const {
    return system_.reaction_count();
  }
  [[nodiscard]] std::size_t species_count() const {
    return system_.species_count();
  }
  [[nodiscard]] double propensity(std::size_t j,
                                  std::span<const std::int64_t> n) const {
    return system_.propensity_scaled(j, n, scaled_[j]);
  }
  void apply(std::size_t j, std::span<std::int64_t> n) const {
    system_.apply(j, n);
  }
  [[nodiscard]] std::span<const std::uint32_t> affected(std::size_t j) const {
    return system_.affected_reactions(j);
  }
  [[nodiscard]] bool affects_own_reactants(std::size_t j) const {
    return system_.affects_own_reactants(j);
  }
  template <class F>
  void for_each_reactant(std::size_t j, F&& f) const {
    const auto species = system_.reactant_species(j);
    const auto stoich = system_.reactant_stoich(j);
    for (std::size_t k = 0; k < species.size(); ++k) {
      f(species[k], stoich[k]);
    }
  }
  template <class F>
  void for_each_net_change(std::size_t j, F&& f) const {
    const auto species = system_.net_species(j);
    const auto delta = system_.net_delta(j);
    for (std::size_t k = 0; k < species.size(); ++k) f(species[k], delta[k]);
  }
  template <class F>
  void for_each_reader(std::size_t i, F&& f) const {
    const auto reactions = system_.dependents_of_species(i);
    const auto stoich = system_.reader_stoich(i);
    for (std::size_t k = 0; k < reactions.size(); ++k) {
      f(reactions[k], stoich[k]);
    }
  }
  [[nodiscard]] std::uint32_t max_reactant_stoich(std::size_t i) const {
    return system_.max_reactant_stoich(i);
  }

 private:
  const CompiledSystem& system_;
  std::span<double> scaled_;
};

template <class Eval>
SsaResult run_direct(const Eval& eval, const SsaOptions& options,
                     std::vector<std::int64_t> counts) {
  util::Rng rng(options.seed);
  const std::size_t m = eval.reaction_count();
  SsaResult result;
  SsaRecorder recorder(options, eval.species_count());
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
      propensities[j] = eval.propensity(j, counts);
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
    eval.apply(chosen, counts);
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

template <class Eval>
SsaResult run_next_reaction(const Eval& eval, const SsaOptions& options,
                            std::vector<std::int64_t> counts, Arena& arena) {
  util::Rng rng(options.seed);
  const std::size_t m = eval.reaction_count();
  SsaResult result;
  SsaRecorder recorder(options, eval.species_count());
  recorder.record_initial(counts);
  AbortPoll abort(options);

  // blocked[j] counts j's reactants that sit below their stoichiometry; a
  // blocked reaction's propensity is exactly 0.0.
  const std::span<std::uint32_t> blocked = arena.alloc<std::uint32_t>(m);
  for (std::size_t j = 0; j < m; ++j) {
    eval.for_each_reactant(j, [&](std::uint32_t idx, std::uint32_t stoich) {
      if (counts[idx] < static_cast<std::int64_t>(stoich)) ++blocked[j];
    });
  }

  std::vector<double> propensities(m);
  IndexedTimeHeap heap(m, [&](std::size_t j) {
    propensities[j] = eval.propensity(j, counts);
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
    eval.for_each_net_change(fired, [&](std::uint32_t i, std::int32_t delta) {
      const std::int64_t before = counts[i];
      const std::int64_t now = before + delta;
      counts[i] = now;
      if (std::min(before, now) >=
          static_cast<std::int64_t>(eval.max_reactant_stoich(i))) {
        return;
      }
      eval.for_each_reader(i, [&](std::uint32_t r, std::uint32_t stoich) {
        const std::int64_t need = stoich;
        blocked[r] += static_cast<std::uint32_t>(now < need) -
                      static_cast<std::uint32_t>(before < need);
      });
    });
    t = t_next;
    ++result.events;

    // Update every dependent reaction's propensity and firing time.
    for (std::uint32_t dep : eval.affected(fired)) {
      // Still blocked and already at 0.0: the recompute would give 0.0 again
      // and an infinite firing time, with no draw and no heap move.
      if (blocked[dep] != 0 && propensities[dep] == 0.0) continue;
      double a_new;
      if (dep == fired && !eval.affects_own_reactants(fired)) {
        // Pure catalysis: firing left fired's own reactant counts untouched,
        // so its propensity is exactly the stored value — skip the recompute.
        // (It still needs a fresh exponential draw below.)
        a_new = propensities[fired];
      } else {
        a_new = eval.propensity(dep, counts);
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

template <class Eval>
SsaResult run_tau_leaping(const Eval& eval, const SsaOptions& options,
                          std::vector<std::int64_t> counts) {
  util::Rng rng(options.seed);
  const std::size_t m = eval.reaction_count();
  SsaResult result;
  SsaRecorder recorder(options, eval.species_count());
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
      const double a = eval.propensity(j, counts);
      if (a <= 0.0) continue;
      any_active = true;
      std::uint64_t firings = rng.poisson(a * tau);
      // Cap the batch by the available reactants: an uncapped overshoot
      // would drive counts negative, and naive clamping *mints* molecules —
      // a fast reversible pair (e.g. the feedback dimers 2G <-> I) then
      // amplifies the surplus into a runaway.
      eval.for_each_reactant(j, [&](std::uint32_t idx, std::uint32_t stoich) {
        const std::uint64_t cap =
            static_cast<std::uint64_t>(counts[idx] / stoich);
        firings = std::min(firings, cap);
      });
      for (std::uint64_t f = 0; f < firings; ++f) {
        eval.apply(j, counts);
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

template <class Eval>
SsaResult dispatch_method(const Eval& eval, const SsaOptions& options,
                          std::vector<std::int64_t> counts, Arena& arena) {
  switch (options.method) {
    case SsaMethod::kDirect:
      return run_direct(eval, options, std::move(counts));
    case SsaMethod::kNextReaction:
      return run_next_reaction(eval, options, std::move(counts), arena);
    case SsaMethod::kTauLeaping:
      return run_tau_leaping(eval, options, std::move(counts));
  }
  throw std::logic_error("simulate_ssa: unknown method");
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
  if (options.engine.kind == EngineKind::kCompiled) {
    const CompiledSystem system(network);
    return simulate_ssa(system, options,
                        to_counts(initial_concentrations, options.omega));
  }
  const MassActionSystem system(network);
  return simulate_ssa(system, options,
                      to_counts(initial_concentrations, options.omega));
}

SsaResult simulate_ssa(const MassActionSystem& system,
                       const SsaOptions& options,
                       std::vector<std::int64_t> initial_counts) {
  validate_options(system.species_count(), options, initial_counts);
  Arena arena;
  const LegacyEval eval(system, options.omega);
  return dispatch_method(eval, options, std::move(initial_counts), arena);
}

SsaResult simulate_ssa(const CompiledSystem& system, const SsaOptions& options,
                       std::vector<std::int64_t> initial_counts) {
  validate_options(system.species_count(), options, initial_counts);
  Arena arena;
  const CompiledEval eval(system, options.omega, arena);
  return dispatch_method(eval, options, std::move(initial_counts), arena);
}

}  // namespace mrsc::sim
