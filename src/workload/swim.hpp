// SWIM-style synthetic workload generation.
//
// The paper's setup "is analogous to the one used by Cho et al., who
// evaluated their preemption primitive using similar synthetic jobs
// created by the SWIM workload generator" [18]. SWIM samples job
// inter-arrivals and sizes from production (Facebook) traces; this
// generator reproduces the salient shape: exponential arrivals and a
// heavy-tailed (bounded Pareto) task count, with most jobs tiny and a few
// large — the regime where preempting long tasks for short jobs pays off.
#pragma once

#include <memory>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "hadoop/job.hpp"
#include "workload/profiles.hpp"

namespace osap {

struct SwimConfig {
  int jobs = 10;
  Duration mean_interarrival = seconds(30);
  /// Bounded-Pareto task count in [1, max_tasks] with this tail exponent.
  int max_tasks = 20;
  double tail_alpha = 1.5;
  Bytes input_per_task = 512 * MiB;
  /// Fraction of jobs whose tasks carry in-memory state.
  double stateful_fraction = 0.2;
  Bytes state_memory = 1 * GiB;
  /// Uniform jitter applied to per-task service demands.
  double jitter = 0.05;
};

struct SwimJob {
  SimTime arrival;
  JobSpec spec;
};

std::vector<SwimJob> generate_swim_trace(const SwimConfig& cfg, Rng& rng);

class Cluster;

/// Submit each job of `trace` to `cluster` at its arrival time. Every
/// pending arrival holds the cluster's work guard, so Cluster::run keeps
/// going through a full drain until the last job has arrived: a trace of
/// N jobs runs N jobs. The returned ids fill in arrival order as the jobs
/// are submitted; read them after the run.
std::shared_ptr<const std::vector<JobId>> schedule_arrivals(Cluster& cluster,
                                                            std::vector<SwimJob> trace);

}  // namespace osap
