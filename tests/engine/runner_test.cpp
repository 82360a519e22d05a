#include "impatience/engine/runner.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "impatience/engine/seeding.hpp"

namespace impatience::engine {
namespace {

/// A batch whose outcomes depend only on each job's seed: every policy
/// and trial combination hashes its own Rng stream.
std::vector<JobSpec> make_batch(int policies, int trials,
                                std::uint64_t root) {
  std::vector<JobSpec> jobs;
  for (int p = 0; p < policies; ++p) {
    for (int t = 0; t < trials; ++t) {
      JobSpec job;
      job.scenario = "test";
      job.policy = "P" + std::to_string(p);
      job.trial = t;
      job.x = static_cast<double>(p);
      job.seed = child_seed(root, job.policy,
                            static_cast<std::uint64_t>(t));
      job.run = [](util::Rng& rng) {
        double sum = 0.0;
        for (int i = 0; i < 1000; ++i) sum += rng.uniform();
        return sum;
      };
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

TEST(Runner, SameRootSeedOneVsEightThreadsIsBitIdentical) {
  Runner serial({.threads = 1});
  Runner wide({.threads = 8});
  const RunReport a = serial.run(make_batch(5, 8, 2009), 2009);
  const RunReport b = wide.run(make_batch(5, 8, 2009), 2009);

  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].policy, b.jobs[i].policy);
    EXPECT_EQ(a.jobs[i].trial, b.jobs[i].trial);
    EXPECT_EQ(a.jobs[i].seed, b.jobs[i].seed);
    EXPECT_TRUE(a.jobs[i].result.ok);
    // Bit-identical, not approximately equal.
    EXPECT_EQ(a.jobs[i].result.value, b.jobs[i].result.value) << i;
  }

  // Identical TrialAggregator contents, sample order included.
  ASSERT_EQ(a.aggregate.series_names(), b.aggregate.series_names());
  for (const auto& series : a.aggregate.series_names()) {
    ASSERT_EQ(a.aggregate.xs(series), b.aggregate.xs(series));
    for (double x : a.aggregate.xs(series)) {
      EXPECT_EQ(a.aggregate.samples(series, x), b.aggregate.samples(series, x));
    }
  }
}

TEST(Runner, FailedJobIsIsolatedAndReported) {
  auto jobs = make_batch(2, 5, 7);
  jobs[3].run = [](util::Rng&) -> double {
    throw std::runtime_error("boom trial 3");
  };
  Runner runner({.threads = 4});
  const RunReport report = runner.run(std::move(jobs), 7);

  EXPECT_EQ(report.failed, 1u);
  ASSERT_EQ(report.jobs.size(), 10u);
  EXPECT_FALSE(report.jobs[3].result.ok);
  EXPECT_NE(report.jobs[3].result.error.find("boom trial 3"),
            std::string::npos);
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    if (i != 3) {
      EXPECT_TRUE(report.jobs[i].result.ok) << i;
    }
  }
  // The failed job's sample is excluded from the aggregate.
  EXPECT_EQ(report.aggregate.samples("P0", 0.0).size(), 4u);
  EXPECT_EQ(report.aggregate.samples("P1", 1.0).size(), 5u);
}

TEST(Runner, NonStdExceptionIsCaught) {
  std::vector<JobSpec> jobs = make_batch(1, 1, 1);
  jobs[0].run = [](util::Rng&) -> double { throw 42; };
  const RunReport report = Runner({.threads = 2}).run(std::move(jobs), 1);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.jobs[0].result.error, "unknown exception");
}

TEST(Runner, AggregateFollowsSubmissionOrder) {
  // Three trials of one policy: samples must appear in trial order even
  // when later trials finish first.
  std::vector<JobSpec> jobs;
  for (int t = 0; t < 3; ++t) {
    JobSpec job;
    job.policy = "P";
    job.trial = t;
    job.x = 1.0;
    job.seed = static_cast<std::uint64_t>(t);
    job.run = [t](util::Rng&) { return static_cast<double>(t); };
    jobs.push_back(std::move(job));
  }
  const RunReport report = Runner({.threads = 3}).run(std::move(jobs), 0);
  const std::vector<double> expected{0.0, 1.0, 2.0};
  EXPECT_EQ(report.aggregate.samples("P", 1.0), expected);
}

TEST(Runner, MergeAccumulatesBatches) {
  Runner runner({.threads = 2});
  RunReport total = runner.run(make_batch(2, 3, 11), 11);
  RunReport second = runner.run(make_batch(2, 3, 12), 12);
  const std::size_t jobs_before = total.jobs.size();
  total.merge(std::move(second));
  EXPECT_EQ(total.jobs.size(), jobs_before + 6);
  EXPECT_EQ(total.root_seed, 11u);  // non-empty report keeps its identity
  EXPECT_EQ(total.aggregate.samples("P0", 0.0).size(), 6u);

  RunReport fresh;
  fresh.merge(runner.run(make_batch(1, 1, 13), 13));
  EXPECT_EQ(fresh.root_seed, 13u);  // empty report adopts the batch's
  EXPECT_EQ(fresh.threads, 2);
}

TEST(Runner, ReportsWallTimes) {
  const RunReport report = Runner({.threads = 2}).run(make_batch(2, 2, 5), 5);
  EXPECT_GT(report.wall_seconds, 0.0);
  for (const auto& job : report.jobs) {
    EXPECT_GE(job.result.wall_seconds, 0.0);
  }
}

}  // namespace
}  // namespace impatience::engine
