// Frozen SSA trajectory digests.
//
// Every raw stochastic trajectory the simulators produce is pinned here as a
// 64-bit FNV-1a hash over its exact bits: every recorded sample (time and
// every species value), the event count, the stop flags, the end time and
// the final integer counts. The table covers the direct, next-reaction and
// tau-leaping methods on every design of the registry's smoke catalog, plus
// two driven runs whose inputs make gated reactions cross between blocked
// and enabled: delay_chain(4) with its input species loaded, and counter(2)
// with an increment token (its clock carries dimeric indicator feedback).
//
// The digests were recorded before the next-reaction loop learned to skip
// blocked reactions, so they hold every later optimisation of the steppers
// to bit-identical output. They are never regenerated to make a change
// pass: a mismatch here means the change altered a trajectory.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "core/network.hpp"
#include "scenario/registry.hpp"
#include "sim/engine/compiled_system.hpp"
#include "sim/ssa.hpp"

namespace mrsc::sim {
namespace {

class Fnv1a {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t digest(const SsaResult& run) {
  Fnv1a h;
  h.add(static_cast<std::uint64_t>(run.trajectory.sample_count()));
  h.add(static_cast<std::uint64_t>(run.trajectory.species_count()));
  for (std::size_t k = 0; k < run.trajectory.sample_count(); ++k) {
    h.add(run.trajectory.time(k));
    for (const double v : run.trajectory.state(k)) h.add(v);
  }
  h.add(run.events);
  h.add(static_cast<std::uint64_t>(run.exhausted));
  h.add(static_cast<std::uint64_t>(run.hit_event_limit));
  h.add(static_cast<std::uint64_t>(run.aborted));
  h.add(run.end_time);
  for (const std::int64_t c : run.final_counts) {
    h.add(static_cast<std::uint64_t>(c));
  }
  return h.value();
}

struct DigestCase {
  const char* spec;
  const char* drive;  ///< "" (network defaults), "input" or "increment"
  SsaMethod method;
  std::uint64_t expected;
};

const char* method_name(SsaMethod method) {
  switch (method) {
    case SsaMethod::kDirect:
      return "direct";
    case SsaMethod::kNextReaction:
      return "nrm";
    case SsaMethod::kTauLeaping:
      return "tau";
  }
  return "?";
}

// Recorded from the trajectories of the stepper before the blocked-reactant
// skip and the countdown abort poll; see the file comment.
const std::vector<DigestCase> kCases = {
    {"counter", "", SsaMethod::kDirect, 0x5664fd4abd13488aull},
    {"counter", "", SsaMethod::kNextReaction, 0x3826cf3de5b63a97ull},
    {"counter", "", SsaMethod::kTauLeaping, 0x6d8d668547a99cf9ull},
    {"moving_average", "", SsaMethod::kDirect, 0xbf2936aa9065e257ull},
    {"moving_average", "", SsaMethod::kNextReaction, 0x27995e6524a33806ull},
    {"moving_average", "", SsaMethod::kTauLeaping, 0x8fe6cc2abc7c4780ull},
    {"iir", "", SsaMethod::kDirect, 0xed03c447c6f3a356ull},
    {"iir", "", SsaMethod::kNextReaction, 0xda1c58cdaafb7717ull},
    {"iir", "", SsaMethod::kTauLeaping, 0xe3010a314b91b7b1ull},
    {"first_difference", "", SsaMethod::kDirect, 0xed03c447c6f3a356ull},
    {"first_difference", "", SsaMethod::kNextReaction, 0xda1c58cdaafb7717ull},
    {"first_difference", "", SsaMethod::kTauLeaping, 0xe3010a314b91b7b1ull},
    {"delay", "", SsaMethod::kDirect, 0xacc643a531c359ebull},
    {"delay", "", SsaMethod::kNextReaction, 0xe6f8cc36f062267aull},
    {"delay", "", SsaMethod::kTauLeaping, 0x47f681e796f6dbacull},
    {"seqdet", "", SsaMethod::kDirect, 0xd7886b059ad1cd80ull},
    {"seqdet", "", SsaMethod::kNextReaction, 0x6da5f25588105f25ull},
    {"seqdet", "", SsaMethod::kTauLeaping, 0xa93d4a0c49f0ad3bull},
    {"cascade", "", SsaMethod::kDirect, 0xb701fde63881cb8cull},
    {"cascade", "", SsaMethod::kNextReaction, 0x29488c08baf3844cull},
    {"cascade", "", SsaMethod::kTauLeaping, 0xb8dbfaa69da57988ull},
    {"counter(2)", "", SsaMethod::kDirect, 0xc31c763be0dd34fdull},
    {"counter(2)", "", SsaMethod::kNextReaction, 0xecfad1560ea3a404ull},
    {"counter(2)", "", SsaMethod::kTauLeaping, 0xc658e1e69d2e0b4aull},
    {"delay_chain(2)", "", SsaMethod::kDirect, 0xd2dfda48a5ed3c2dull},
    {"delay_chain(2)", "", SsaMethod::kNextReaction, 0x21b89daa37a0ddfeull},
    {"delay_chain(2)", "", SsaMethod::kTauLeaping, 0x38a95c80f368564aull},
    {"fsm_wide(4)", "", SsaMethod::kDirect, 0x0ae31df166f5eb22ull},
    {"fsm_wide(4)", "", SsaMethod::kNextReaction, 0x87a25ac02454347full},
    {"fsm_wide(4)", "", SsaMethod::kTauLeaping, 0x9e4830117ee2f3e1ull},
    {"cascade(3)", "", SsaMethod::kDirect, 0xd2cc6719162f0637ull},
    {"cascade(3)", "", SsaMethod::kNextReaction, 0xfbb1d77684c70e56ull},
    {"cascade(3)", "", SsaMethod::kTauLeaping, 0x779b14fad66d31b9ull},
    {"delay_chain(4)", "input", SsaMethod::kDirect, 0x5b13104aa3acfe9full},
    {"delay_chain(4)", "input", SsaMethod::kNextReaction, 0xbe0c865b1239ff50ull},
    {"delay_chain(4)", "input", SsaMethod::kTauLeaping, 0xccc271fceae158f0ull},
    {"counter(2)", "increment", SsaMethod::kDirect, 0x53acb3df8027ec1cull},
    {"counter(2)", "increment", SsaMethod::kNextReaction, 0xe20ef0f284fcb370ull},
    {"counter(2)", "increment", SsaMethod::kTauLeaping, 0xa9d9df5cd3d7e4c8ull},
};

core::ReactionNetwork network_for(const DigestCase& c) {
  const scenario::ResolvedScenario resolved =
      scenario::ScenarioRegistry::global().resolve(c.spec);
  core::ReactionNetwork network = *resolved.design.network;
  const std::string drive = c.drive;
  if (drive == "input") {
    const auto& chain = std::get<scenario::ChainArtifacts>(resolved.artifacts);
    network.set_initial(chain.handles.input, 1.0);
  } else if (drive == "increment") {
    const auto& counter =
        std::get<scenario::CounterArtifacts>(resolved.artifacts);
    network.set_initial(counter.handles.increment, 1.0);
  }
  return network;
}

SsaOptions options_for(SsaMethod method) {
  SsaOptions options;
  options.method = method;
  options.t_end = 25.0;
  options.omega = 200.0;
  options.seed = 11;
  options.tau = 0.01;
  options.record_interval = 0.05;
  options.max_events = 200'000;
  return options;
}

TEST(SsaDigest, RawTrajectoriesMatchFrozenDigests) {
  for (const DigestCase& c : kCases) {
    const std::string context = std::string(c.spec) +
                                (c.drive[0] ? std::string("+") + c.drive : "") +
                                "/" + method_name(c.method);
    const core::ReactionNetwork network = network_for(c);
    SsaOptions options = options_for(c.method);
    for (const EngineKind kind : {EngineKind::kLegacy, EngineKind::kCompiled}) {
      options.engine.kind = kind;
      const SsaResult run = simulate_ssa(network, options);
      EXPECT_EQ(digest(run), c.expected)
          << context << (kind == EngineKind::kLegacy ? " legacy" : " compiled")
          << " events " << run.events;
    }
    // A cancellation hook that never fires, polled on an odd stride, must
    // not move a bit either (the ensemble runner always installs one).
    options.abort = [] { return false; };
    options.abort_check_events = 3;
    EXPECT_EQ(digest(simulate_ssa(network, options)), c.expected)
        << context << " with abort hook";
  }
}

TEST(SsaDigest, TableCoversSmokeCatalogAndDrivenRuns) {
  const auto covered = [](const std::string& spec, const std::string& drive,
                          SsaMethod method) {
    for (const DigestCase& c : kCases) {
      if (spec == c.spec && drive == c.drive && method == c.method) {
        return true;
      }
    }
    return false;
  };
  std::vector<std::pair<std::string, std::string>> runs;
  for (const std::string& spec :
       scenario::ScenarioRegistry::global().smoke_catalog()) {
    runs.emplace_back(spec, "");
  }
  runs.emplace_back("delay_chain(4)", "input");
  runs.emplace_back("counter(2)", "increment");
  for (const auto& [spec, drive] : runs) {
    for (const SsaMethod method :
         {SsaMethod::kDirect, SsaMethod::kNextReaction,
          SsaMethod::kTauLeaping}) {
      EXPECT_TRUE(covered(spec, drive, method))
          << spec << "+" << drive << "/" << method_name(method);
    }
  }
  // The driven counter run exercises a dimer threshold (stoichiometry 2).
  const CompiledSystem counter(network_for({"counter(2)", "increment",
                                            SsaMethod::kNextReaction, 0}));
  bool has_dimer = false;
  for (std::size_t j = 0; j < counter.reaction_count(); ++j) {
    has_dimer = has_dimer || counter.kernel(j) == ReactionKernel::kDimer;
  }
  EXPECT_TRUE(has_dimer);
}

}  // namespace
}  // namespace mrsc::sim
