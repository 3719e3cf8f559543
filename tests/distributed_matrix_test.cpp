// Combinatorial coverage of the distributed filter: the full grid of
// {exchange scheme} x {resampling algorithm} x {generator} is run at small
// scale and checked for finiteness, weight sanity and worker-count
// invariance - the properties that must hold for *every* configuration,
// not just the defaults. A worker-count grid additionally pins the full
// filter state - estimates, particles, log-weights and work.* counters -
// bit-for-bit against the single-worker run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/distributed_pf.hpp"
#include "models/robot_arm.hpp"
#include "sim/ground_truth.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace esthera;

using Combo = std::tuple<topology::ExchangeScheme, core::ResampleAlgorithm,
                         prng::Generator>;

class ComboTest : public ::testing::TestWithParam<Combo> {};

std::vector<float> run_combo(const Combo& combo, std::size_t workers) {
  const auto [scheme, resample, generator] = combo;
  sim::RobotArmScenario scenario;
  scenario.reset(5);
  core::FilterConfig cfg;
  cfg.particles_per_filter = 16;
  cfg.num_filters = 12;  // non-power-of-two network, 3x4 torus
  cfg.scheme = scheme;
  cfg.exchange_particles = scheme == topology::ExchangeScheme::kNone ? 0 : 1;
  cfg.resample = resample;
  cfg.generator = generator;
  cfg.workers = workers;
  cfg.seed = 31;
  core::DistributedParticleFilter<models::RobotArmModel<float>> pf(
      scenario.make_model<float>(), cfg);
  std::vector<float> z, u, out;
  for (int k = 0; k < 12; ++k) {
    const auto step = scenario.advance();
    z.assign(step.z.begin(), step.z.end());
    u.assign(step.u.begin(), step.u.end());
    pf.step(z, u);
    out.insert(out.end(), pf.estimate().begin(), pf.estimate().end());
  }
  // Weight sanity: after an always-resample round every log-weight is 0.
  for (std::size_t g = 0; g < cfg.num_filters; ++g) {
    for (const float v : pf.local_estimate(g)) {
      EXPECT_TRUE(std::isfinite(v));
    }
  }
  return out;
}

TEST_P(ComboTest, EstimatesFiniteAndWorkerInvariant) {
  const auto serial = run_combo(GetParam(), 1);
  for (const float v : serial) ASSERT_TRUE(std::isfinite(v));
  const auto parallel = run_combo(GetParam(), 3);
  EXPECT_EQ(serial, parallel);
}

INSTANTIATE_TEST_SUITE_P(
    FullGrid, ComboTest,
    ::testing::Combine(
        ::testing::Values(topology::ExchangeScheme::kNone,
                          topology::ExchangeScheme::kAllToAll,
                          topology::ExchangeScheme::kRing,
                          topology::ExchangeScheme::kTorus2D),
        ::testing::Values(core::ResampleAlgorithm::kRws,
                          core::ResampleAlgorithm::kVose,
                          core::ResampleAlgorithm::kSystematic,
                          core::ResampleAlgorithm::kStratified),
        ::testing::Values(prng::Generator::kMtgp, prng::Generator::kPhilox)));

// The same grid must hold for double precision (spot-check a diagonal).
class ComboDoubleTest : public ::testing::TestWithParam<Combo> {};

TEST_P(ComboDoubleTest, DoublePrecisionRuns) {
  const auto [scheme, resample, generator] = GetParam();
  sim::RobotArmScenario scenario;
  scenario.reset(6);
  core::FilterConfig cfg;
  cfg.particles_per_filter = 8;
  cfg.num_filters = 9;  // 3x3 torus
  cfg.scheme = scheme;
  cfg.exchange_particles = scheme == topology::ExchangeScheme::kNone ? 0 : 1;
  cfg.resample = resample;
  cfg.generator = generator;
  cfg.seed = 77;
  core::DistributedParticleFilter<models::RobotArmModel<double>> pf(
      scenario.make_model<double>(), cfg);
  std::vector<double> z, u;
  for (int k = 0; k < 8; ++k) {
    const auto step = scenario.advance();
    z.assign(step.z.begin(), step.z.end());
    u.assign(step.u.begin(), step.u.end());
    pf.step(z, u);
  }
  for (const double v : pf.estimate()) EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(
    Diagonal, ComboDoubleTest,
    ::testing::Values(Combo{topology::ExchangeScheme::kRing,
                            core::ResampleAlgorithm::kRws,
                            prng::Generator::kMtgp},
                      Combo{topology::ExchangeScheme::kTorus2D,
                            core::ResampleAlgorithm::kVose,
                            prng::Generator::kPhilox},
                      Combo{topology::ExchangeScheme::kAllToAll,
                            core::ResampleAlgorithm::kSystematic,
                            prng::Generator::kMtgp}));

// Odd network shapes: primes, 2 filters, 1 filter.
class NetworkShapeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NetworkShapeTest, TorusHandlesAnyFilterCount) {
  const std::size_t n = GetParam();
  sim::RobotArmScenario scenario;
  scenario.reset(4);
  core::FilterConfig cfg;
  cfg.particles_per_filter = 16;
  cfg.num_filters = n;
  cfg.scheme = n > 1 ? topology::ExchangeScheme::kTorus2D
                     : topology::ExchangeScheme::kNone;
  cfg.exchange_particles = n > 1 ? 1 : 0;
  cfg.seed = 3;
  core::DistributedParticleFilter<models::RobotArmModel<float>> pf(
      scenario.make_model<float>(), cfg);
  std::vector<float> z, u;
  for (int k = 0; k < 6; ++k) {
    const auto step = scenario.advance();
    z.assign(step.z.begin(), step.z.end());
    u.assign(step.u.begin(), step.u.end());
    pf.step(z, u);
  }
  for (const float v : pf.estimate()) EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(Shapes, NetworkShapeTest,
                         ::testing::Values<std::size_t>(1, 2, 3, 5, 7, 12, 13, 36));

const char* const kWorkCounters[] = {
    "work.barriers",    "work.lockstep_phases", "work.compare_exchanges",
    "work.scan_sweeps", "work.rng_draws",       "work.metropolis_steps"};

struct FilterRun {
  std::vector<float> estimates;  // concatenated per-step estimates
  std::vector<float> state;      // final particle states
  std::vector<float> log_weights;
  std::vector<std::uint64_t> counters;
};

FilterRun run_distributed(core::FilterConfig cfg, int steps) {
  telemetry::Telemetry tel;
  cfg.telemetry = &tel;
  sim::RobotArmScenario scenario;
  scenario.reset(2);
  core::DistributedParticleFilter<models::RobotArmModel<float>> pf(
      scenario.make_model<float>(), cfg);
  std::vector<float> z, u;
  FilterRun r;
  for (int k = 0; k < steps; ++k) {
    const auto step = scenario.advance();
    z.assign(step.z.begin(), step.z.end());
    u.assign(step.u.begin(), step.u.end());
    pf.step(z, u);
    r.estimates.insert(r.estimates.end(), pf.estimate().begin(),
                       pf.estimate().end());
  }
  const auto snapshot = pf.export_state();
  r.state = snapshot.state;
  r.log_weights = snapshot.log_weights;
  for (const char* name : kWorkCounters) {
    r.counters.push_back(tel.registry.counter(name).value());
  }
  return r;
}

TEST(WorkerGrid, DistributedFilterBitIdentical) {
  // workers x resampler, everything compared bit-for-bit against the
  // single-worker reference: estimates, final particle states,
  // log-weights, and the deterministic work.* counters (which must not
  // depend on how groups were spread over threads).
  for (const auto algo :
       {core::ResampleAlgorithm::kRws, core::ResampleAlgorithm::kMetropolis}) {
    core::FilterConfig base;
    base.particles_per_filter = 32;
    base.num_filters = 16;
    base.seed = 9;
    base.resample = algo;
    base.workers = 1;
    const FilterRun ref = run_distributed(base, 3);

    for (const std::size_t workers : {1u, 2u, 8u}) {
      core::FilterConfig cfg = base;
      cfg.workers = workers;
      const FilterRun run = run_distributed(cfg, 3);
      const std::string where = std::string("resample=") +
                                core::to_string(algo) +
                                " workers=" + std::to_string(workers);
      EXPECT_EQ(run.estimates, ref.estimates) << where;
      EXPECT_EQ(run.state, ref.state) << where;
      EXPECT_EQ(run.log_weights, ref.log_weights) << where;
      EXPECT_EQ(run.counters, ref.counters) << where;
    }
  }
}

}  // namespace
