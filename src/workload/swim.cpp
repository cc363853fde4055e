#include "workload/swim.hpp"

#include <cmath>
#include <utility>

#include "hadoop/cluster.hpp"

namespace osap {

namespace {

/// Bounded Pareto in [1, hi] with tail exponent alpha.
int bounded_pareto(Rng& rng, int hi, double alpha) {
  const double l = 1.0;
  const double h = static_cast<double>(hi);
  const double u = rng.uniform();
  const double la = std::pow(l, alpha);
  const double ha = std::pow(h, alpha);
  const double x = std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
  const int n = static_cast<int>(x);
  return std::min(hi, std::max(1, n));
}

}  // namespace

std::vector<SwimJob> generate_swim_trace(const SwimConfig& cfg, Rng& rng) {
  std::vector<SwimJob> trace;
  trace.reserve(static_cast<std::size_t>(cfg.jobs));
  SimTime clock = 0.1;
  for (int j = 0; j < cfg.jobs; ++j) {
    const int tasks = bounded_pareto(rng, cfg.max_tasks, cfg.tail_alpha);
    const bool stateful = rng.uniform() < cfg.stateful_fraction;
    JobSpec spec;
    spec.name = "swim" + std::to_string(j);
    spec.priority = 0;
    for (int t = 0; t < tasks; ++t) {
      TaskSpec task = stateful ? hungry_map_task(cfg.state_memory, cfg.input_per_task)
                               : light_map_task(cfg.input_per_task);
      task = jitter_task(task, rng, cfg.jitter);
      spec.tasks.push_back(std::move(task));
    }
    trace.push_back(SwimJob{clock, std::move(spec)});
    clock += rng.exponential(cfg.mean_interarrival);
  }
  return trace;
}

std::shared_ptr<const std::vector<JobId>> schedule_arrivals(Cluster& cluster,
                                                            std::vector<SwimJob> trace) {
  auto ids = std::make_shared<std::vector<JobId>>();
  ids->reserve(trace.size());
  for (SwimJob& job : trace) {
    cluster.retain_work();
    cluster.sim().at(job.arrival, [&cluster, ids, spec = std::move(job.spec)]() mutable {
      ids->push_back(cluster.submit(std::move(spec)));
      cluster.release_work();
    });
  }
  return ids;
}

}  // namespace osap
