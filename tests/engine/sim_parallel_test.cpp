// Runs real simulator trials through the engine: catches both seeding
// regressions (results must not depend on thread count) and data races
// in the simulator core when several trials share one scenario — this is
// the test ThreadSanitizer is pointed at (ctest -L engine).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "impatience/core/experiment.hpp"
#include "impatience/engine/runner.hpp"
#include "impatience/engine/seeding.hpp"
#include "impatience/utility/families.hpp"

namespace impatience {
namespace {

core::Scenario small_scenario(std::uint64_t seed) {
  util::Rng rng(engine::child_seed(seed, "scenario"));
  auto trace = trace::generate_poisson({12, 400, 0.05}, rng);
  return core::make_scenario(std::move(trace),
                             core::Catalog::pareto(12, 1.0, 1.0), 3);
}

std::vector<engine::JobSpec> make_jobs(
    const core::Scenario& scenario, const utility::DelayUtility& u,
    const std::vector<std::vector<core::NamedPlacement>>& placements,
    int trials, std::uint64_t root) {
  std::vector<engine::JobSpec> jobs;
  for (int t = 0; t < trials; ++t) {
    for (const auto& competitor : placements[static_cast<std::size_t>(t)]) {
      engine::JobSpec job;
      job.policy = competitor.name;
      job.trial = t;
      job.seed = engine::child_seed(root, competitor.name,
                                    static_cast<std::uint64_t>(t));
      job.run = [&scenario, &u, &competitor](util::Rng& rng) {
        return core::run_fixed(scenario, u, competitor.name,
                               competitor.placement, core::SimOptions{}, rng)
            .observed_utility();
      };
      jobs.push_back(std::move(job));
    }
    engine::JobSpec qcr;
    qcr.policy = "QCR";
    qcr.trial = t;
    qcr.seed = engine::child_seed(root, "QCR", static_cast<std::uint64_t>(t));
    qcr.run = [&scenario, &u](util::Rng& rng) {
      return core::run_qcr(scenario, u, core::QcrOptions{},
                           core::SimOptions{}, rng)
          .observed_utility();
    };
    jobs.push_back(std::move(qcr));
  }
  return jobs;
}

TEST(SimParallel, SharedScenarioTrialsAreThreadCountInvariant) {
  const std::uint64_t root = 1234;
  const int trials = 3;
  const auto scenario = small_scenario(root);
  const utility::PowerUtility u(0.0);

  std::vector<std::vector<core::NamedPlacement>> placements;
  for (int t = 0; t < trials; ++t) {
    util::Rng pr(engine::child_seed(root, "placement",
                                    static_cast<std::uint64_t>(t)));
    placements.push_back(core::build_competitors(
        scenario, u, core::OptMode::kHomogeneous, pr));
  }

  const auto serial = engine::Runner({.threads = 1})
                          .run(make_jobs(scenario, u, placements, trials,
                                         root),
                               root);
  const auto wide = engine::Runner({.threads = 4})
                        .run(make_jobs(scenario, u, placements, trials,
                                       root),
                             root);

  ASSERT_EQ(serial.failed, 0u);
  ASSERT_EQ(wide.failed, 0u);
  ASSERT_EQ(serial.jobs.size(), wide.jobs.size());
  for (std::size_t i = 0; i < serial.jobs.size(); ++i) {
    EXPECT_EQ(serial.jobs[i].policy, wide.jobs[i].policy);
    EXPECT_EQ(serial.jobs[i].result.value, wide.jobs[i].result.value)
        << serial.jobs[i].policy << " trial " << serial.jobs[i].trial;
  }
}

bool same_competitors(const std::vector<core::NamedPlacement>& a,
                      const std::vector<core::NamedPlacement>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    const auto& pa = a[k].placement;
    const auto& pb = b[k].placement;
    if (a[k].name != b[k].name || pa.num_items() != pb.num_items() ||
        pa.num_servers() != pb.num_servers()) {
      return false;
    }
    for (core::ItemId i = 0; i < pa.num_items(); ++i) {
      for (core::NodeId n = 0; n < pa.num_servers(); ++n) {
        if (pa.has(i, n) != pb.has(i, n)) return false;
      }
    }
  }
  return true;
}

TEST(SimParallel, ConcurrentEstimatedCompetitorsMatchSerial) {
  // build_competitors reuses the last estimated OPT behind a mutex; four
  // threads alternating two utilities must each get the serial result.
  const auto scenario = small_scenario(91);
  const utility::StepUtility short_tau(2.0);
  const utility::StepUtility long_tau(50.0);
  const utility::DelayUtility* utilities[] = {&short_tau, &long_tau};
  const auto build = [&](int which) {
    util::Rng rng(static_cast<std::uint64_t>(100 + which));
    return core::build_competitors(scenario, *utilities[which],
                                   core::OptMode::kEstimated, rng);
  };
  const std::vector<std::vector<core::NamedPlacement>> serial{build(0),
                                                              build(1)};
  // Different OPTs, so a reuse of the wrong entry would show.
  ASSERT_FALSE(same_competitors({serial[0][0]}, {serial[1][0]}));

  constexpr int kThreads = 4;
  constexpr int kCalls = 6;
  std::vector<std::vector<std::vector<core::NamedPlacement>>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int c = 0; c < kCalls; ++c) got[t].push_back(build((t + c) % 2));
    });
  }
  for (auto& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), static_cast<std::size_t>(kCalls));
    for (int c = 0; c < kCalls; ++c) {
      EXPECT_TRUE(same_competitors(got[t][c], serial[(t + c) % 2]))
          << "thread " << t << " call " << c;
    }
  }
}

TEST(SimParallel, FaultyTrialsAreThreadCountInvariant) {
  // Same contract under injected faults: each job derives its fault seed
  // from its own identity, so 1-thread and 8-thread runs are
  // bit-identical even while the channel drops, truncates, and crashes.
  const std::uint64_t root = 5678;
  const int trials = 3;
  const auto scenario = small_scenario(root);
  const utility::PowerUtility u(0.0);

  const auto make_faulty_jobs = [&] {
    std::vector<engine::JobSpec> jobs;
    for (int t = 0; t < trials; ++t) {
      engine::JobSpec qcr;
      qcr.policy = "QCR-faulty";
      qcr.trial = t;
      qcr.seed = engine::child_seed(root, "QCR-faulty",
                                    static_cast<std::uint64_t>(t));
      const std::uint64_t fault_seed = engine::child_seed(
          root, "fault:QCR-faulty", static_cast<std::uint64_t>(t));
      qcr.run_cancellable = [&scenario, &u, fault_seed](
                                util::Rng& rng,
                                const util::CancellationToken& cancel) {
        core::SimOptions options;
        options.faults.p_drop = 0.1;
        options.faults.p_truncate = 0.1;
        options.faults.p_crash = 0.001;
        options.faults.seed = fault_seed;
        options.cancel = &cancel;
        return core::run_qcr(scenario, u, core::QcrOptions{}, options, rng)
            .observed_utility();
      };
      jobs.push_back(std::move(qcr));
    }
    return jobs;
  };

  const auto serial =
      engine::Runner({.threads = 1}).run(make_faulty_jobs(), root);
  const auto wide =
      engine::Runner({.threads = 8}).run(make_faulty_jobs(), root);

  ASSERT_EQ(serial.failed, 0u);
  ASSERT_EQ(wide.failed, 0u);
  ASSERT_EQ(serial.jobs.size(), wide.jobs.size());
  for (std::size_t i = 0; i < serial.jobs.size(); ++i) {
    EXPECT_EQ(serial.jobs[i].result.value, wide.jobs[i].result.value)
        << "faulty trial " << serial.jobs[i].trial;
  }
}

}  // namespace
}  // namespace impatience
