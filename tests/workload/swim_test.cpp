#include "workload/swim.hpp"

#include <gtest/gtest.h>

#include <string>

#include "hadoop/cluster.hpp"
#include "sched/fifo.hpp"

namespace osap {
namespace {

TEST(Swim, GeneratesRequestedJobCount) {
  SwimConfig cfg;
  cfg.jobs = 25;
  Rng rng(1);
  const auto trace = generate_swim_trace(cfg, rng);
  EXPECT_EQ(trace.size(), 25u);
}

TEST(Swim, ArrivalsAreMonotonic) {
  SwimConfig cfg;
  cfg.jobs = 50;
  Rng rng(2);
  const auto trace = generate_swim_trace(cfg, rng);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i].arrival, trace[i - 1].arrival);
  }
}

TEST(Swim, TaskCountsWithinBounds) {
  SwimConfig cfg;
  cfg.jobs = 200;
  cfg.max_tasks = 16;
  Rng rng(3);
  for (const SwimJob& job : generate_swim_trace(cfg, rng)) {
    EXPECT_GE(job.spec.tasks.size(), 1u);
    EXPECT_LE(job.spec.tasks.size(), 16u);
  }
}

TEST(Swim, HeavyTailMostJobsAreSmall) {
  SwimConfig cfg;
  cfg.jobs = 400;
  cfg.max_tasks = 20;
  cfg.tail_alpha = 1.5;
  Rng rng(4);
  int small = 0, large = 0;
  for (const SwimJob& job : generate_swim_trace(cfg, rng)) {
    if (job.spec.tasks.size() <= 2) ++small;
    if (job.spec.tasks.size() >= 10) ++large;
  }
  EXPECT_GT(small, 200);  // the majority are tiny
  EXPECT_GT(large, 0);    // but the tail exists
}

TEST(Swim, StatefulFractionRoughlyHonored) {
  SwimConfig cfg;
  cfg.jobs = 300;
  cfg.stateful_fraction = 0.3;
  Rng rng(5);
  int stateful = 0;
  for (const SwimJob& job : generate_swim_trace(cfg, rng)) {
    if (job.spec.tasks.front().state_memory > 0) ++stateful;
  }
  EXPECT_GT(stateful, 300 * 0.3 * 0.6);
  EXPECT_LT(stateful, 300 * 0.3 * 1.5);
}

TEST(Swim, DeterministicGivenSeed) {
  SwimConfig cfg;
  cfg.jobs = 10;
  Rng a(7), b(7);
  const auto ta = generate_swim_trace(cfg, a);
  const auto tb = generate_swim_trace(cfg, b);
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_DOUBLE_EQ(ta[i].arrival, tb[i].arrival);
    EXPECT_EQ(ta[i].spec.tasks.size(), tb[i].spec.tasks.size());
  }
}

TEST(Swim, MeanInterarrivalApproximatelyRespected) {
  SwimConfig cfg;
  cfg.jobs = 2000;
  cfg.mean_interarrival = seconds(10);
  Rng rng(8);
  const auto trace = generate_swim_trace(cfg, rng);
  const double span = trace.back().arrival - trace.front().arrival;
  const double mean = span / static_cast<double>(trace.size() - 1);
  EXPECT_NEAR(mean, 10.0, 1.0);
}

TEST(Swim, ArrivalsAfterAFullDrainStillRun) {
  // Each job finishes long before the next one arrives, so the cluster
  // drains completely between arrivals. Every job must still be
  // submitted, on time and in arrival order, and succeed.
  Cluster cluster(paper_cluster());
  cluster.set_scheduler(std::make_unique<FifoScheduler>());
  std::vector<SwimJob> trace;
  for (int j = 0; j < 3; ++j) {
    trace.push_back(SwimJob{0.1 + 1000.0 * j,
                            single_task_job("late" + std::to_string(j), 0, light_map_task())});
  }
  const auto ids = schedule_arrivals(cluster, std::move(trace));
  cluster.run();
  ASSERT_EQ(ids->size(), 3u);
  for (std::size_t j = 0; j < ids->size(); ++j) {
    const Job& job = cluster.job_tracker().job((*ids)[j]);
    EXPECT_EQ(job.spec.name, "late" + std::to_string(j));
    EXPECT_EQ(job.state, JobState::Succeeded);
    EXPECT_DOUBLE_EQ(job.submitted_at, 0.1 + 1000.0 * static_cast<double>(j));
  }
}

}  // namespace
}  // namespace osap
