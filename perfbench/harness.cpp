// Measurement harness of the repository benchmark (see README.md).
//
// Every layer is timed from outside, through public entry points only:
// a Scheduler decorator installed with Cluster::set_scheduler; timed
// Cluster construction, generate_swim_trace, Cluster::submit and
// Cluster::run; timed core::run_descriptor, osapd::expand,
// osapd::run_sweep and osapd::write_summary_json. Deterministic counts
// come from the simulation's counter registry and hot-path profiler
// (Simulation::write_observability_json, RunOptions::counters_file).
// Every measured unit also carries the median of the host gauge
// (HostGauge below) sampled during it, which run.py uses to put times
// taken in slow and fast spells of a shared host on one scale.
//
// Usage: perfbench_harness <warehouse|contended|sweep> key=value...
//
// Each workload's configuration is fixed below; the arguments carry only
// what varies between runs: the input family (input_seed for warehouse,
// seeds for contended, seed_first and seed_count for sweep), seconds,
// trace and tmp. The harness prints one JSON object of
// raw samples on stdout; run.py turns it into metrics and checks it
// against pins.json.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "core/osap.hpp"
#include "core/run.hpp"
#include "hadoop/scheduler.hpp"
#include "osapd/aggregate.hpp"
#include "osapd/expand.hpp"
#include "osapd/sweep.hpp"
#include "sched/hfsp.hpp"
#include "workload/profiles.hpp"
#include "workload/swim.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using osap::core::RunDescriptor;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(Clock::now().time_since_epoch()).count();
}

// --- arguments --------------------------------------------------------------

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string item = argv[i];
      const std::size_t eq = item.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw std::runtime_error("argument '" + item + "' is not key=value");
      }
      kv_[item.substr(0, eq)] = item.substr(eq + 1);
    }
  }

  [[nodiscard]] std::string str(const std::string& key) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) throw std::runtime_error("missing argument '" + key + "'");
    return it->second;
  }
  [[nodiscard]] double num(const std::string& key) const { return std::stod(str(key)); }
  [[nodiscard]] int integer(const std::string& key) const { return std::stoi(str(key)); }
  /// Comma-separated list.
  [[nodiscard]] std::vector<std::string> list(const std::string& key) const {
    std::vector<std::string> out;
    std::stringstream in(str(key));
    std::string item;
    while (std::getline(in, item, ',')) {
      if (!item.empty()) out.push_back(item);
    }
    if (out.empty()) throw std::runtime_error("argument '" + key + "' is an empty list");
    return out;
  }

 private:
  std::map<std::string, std::string> kv_;
};

// --- JSON output --------------------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return quote(buf);
}

std::string boolean(bool v) { return v ? "true" : "false"; }

/// "[a,b,...]" from already-encoded JSON values.
std::string array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += items[i];
  }
  out += ']';
  return out;
}

std::string num_array(const std::vector<double>& values) {
  std::vector<std::string> items;
  items.reserve(values.size());
  for (const double v : values) items.push_back(num(v));
  return array(items);
}

/// "{"k":v,...}" from keys and already-encoded JSON values.
std::string object(const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ',';
    out += quote(fields[i].first);
    out += ':';
    out += fields[i].second;
  }
  out += '}';
  return out;
}

/// The first line of a failure message and the first auditor verdict
/// under it ("[preempt-protocol] task_84: ..."), which names the cause.
std::string error_lines(const std::string& error) {
  std::istringstream in(error);
  std::string line;
  std::string first;
  while (std::getline(in, line)) {
    if (first.empty()) {
      first = line;
      continue;
    }
    const std::size_t at = line.find_first_not_of(' ');
    if (at != std::string::npos && line[at] == '[') return first + " | " + line.substr(at);
  }
  return first;
}

/// Nearest-rank percentile of an unsorted sample; 0 for an empty one.
template <typename T>
double percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0;
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  const std::size_t at = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(at), v.end());
  return static_cast<double>(v[at]);
}

/// FNV-1a over the little-endian bytes of per-cell trace digests in
/// descriptor order: one digest for a whole grid. A failed cell's digest
/// is 0.
std::uint64_t fold(const std::vector<std::uint64_t>& digests) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t d : digests) {
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ ((d >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  return h;
}

/// Largest resident set of this process or of any child it waited for
/// (the osapd workers), in MiB.
double peak_rss_mib() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

/// Decides whether another measured unit fits in a time budget: it does
/// when the units so far, at their mean length, leave room for one more.
/// The first unit always runs.
class Budget {
 public:
  explicit Budget(double seconds) : seconds_(seconds) {}
  [[nodiscard]] bool more(int done) const {
    const double used = since(start_);
    return done == 0 || used + used / done <= seconds_;
  }

 private:
  Clock::time_point start_ = Clock::now();
  double seconds_;
};

/// A fixed piece of work that shares no code with the program: pushes and
/// pops on two binary min-heaps, one of 512 keys (4 KiB, first-level
/// cache) and one of 32,768 keys (256 KiB, second-level cache), the
/// event-queue work of a discrete-event simulation. The benchmark runs it
/// between slices of the program on the same thread. A shared host runs in
/// slow and fast spells that last longer than a run, and the gauge's time
/// follows them; it never calls the allocator and works on so little
/// memory that the program's state does not move it. run.py divides the
/// program's times by it (README.md).
class HostGauge {
 public:
  struct Reading {
    double median_s = 0;  // 0 when there are no samples
    double spent_s = 0;   // total time of the samples
  };

  HostGauge() {
    small_.reserve(kSmallKeys + 1);
    large_.reserve(kLargeKeys + 1);
    run_once();
  }

  /// Runs the work twice and records the second run's wall time: the
  /// first brings the gauge's data and branch history back, so that the
  /// sample does not depend on what the program ran before it.
  void sample() {
    run_once();
    samples_.push_back(run_once());
  }

  /// The samples since the last take(), which are then cleared.
  Reading take() {
    Reading r;
    r.spent_s = spent();
    r.median_s = percentile(samples_, 50);
    samples_.clear();
    return r;
  }

  /// Total time of the samples since the last take(); keeps them.
  [[nodiscard]] double spent() const {
    double total = 0;
    for (const double s : samples_) total += s;
    return total;
  }

  [[nodiscard]] std::uint64_t checksum() const noexcept { return sink_; }

 private:
  static constexpr std::size_t kSmallKeys = 512;
  static constexpr std::size_t kLargeKeys = 32768;

  /// `ops` pushes on `heap`, popping the least key once it holds `keys`.
  std::uint64_t churn(std::vector<std::uint64_t>& heap, std::size_t keys, int ops) {
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    std::uint64_t popped = 0;
    heap.clear();
    for (int i = 0; i < ops; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      heap.push_back(x);
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
      if (heap.size() > keys) {
        popped += heap.front();
        std::pop_heap(heap.begin(), heap.end(), std::greater<>());
        heap.pop_back();
      }
    }
    return popped;
  }

  double run_once() {
    const Clock::time_point t0 = Clock::now();
    sink_ += churn(small_, kSmallKeys, 10000);
    sink_ += churn(large_, kLargeKeys, 20000);
    return since(t0);
  }

  std::vector<std::uint64_t> small_;
  std::vector<std::uint64_t> large_;
  std::vector<double> samples_;
  std::uint64_t sink_ = 0;
};

// --- warehouse --------------------------------------------------------------

/// Times every assign call of the wrapped scheduler. Forwards every hook,
/// so the simulation is the one the bare scheduler would produce.
class TimedScheduler final : public osap::Scheduler {
 public:
  explicit TimedScheduler(std::unique_ptr<osap::Scheduler> inner) : inner_(std::move(inner)) {}

  void job_added(osap::JobId id) override { inner_->job_added(id); }
  void job_completed(osap::JobId id) override { inner_->job_completed(id); }

  std::vector<osap::TaskId> assign(const osap::TrackerStatus& status) override {
    const Clock::time_point t0 = Clock::now();
    std::vector<osap::TaskId> out = inner_->assign(status);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0);
    ns_.push_back(static_cast<std::uint64_t>(ns.count()));
    launches_ += out.size();
    return out;
  }

  [[nodiscard]] const std::vector<std::uint64_t>& call_ns() const noexcept { return ns_; }
  [[nodiscard]] std::uint64_t launches() const noexcept { return launches_; }

 protected:
  void attached() override { inner_->attach(*jt_); }

 private:
  std::unique_ptr<osap::Scheduler> inner_;
  std::vector<std::uint64_t> ns_;
  std::uint64_t launches_ = 0;
};

struct SubmitTimes {
  std::uint64_t calls = 0;
  double busy_s = 0;
};

// bench/cluster_scale's warehouse configuration at twice its size.
constexpr int kWarehouseNodes = 2000;
constexpr int kWarehouseJobs = 4000;
/// Set-ups timed per run, before any simulation.
constexpr int kWarehouseSetups = 9;
/// Run ticks (2,048 fired events each) between two gauge samples.
constexpr int kGaugeEveryTicks = 16;

/// One warehouse cell: HFSP + susp, speculation on, audits off.
struct WarehouseCell {
  std::unique_ptr<osap::Cluster> cluster;
  TimedScheduler* timed = nullptr;  // owned by the cluster; null untraced
  std::shared_ptr<std::vector<osap::JobId>> ids = std::make_shared<std::vector<osap::JobId>>();
  std::shared_ptr<SubmitTimes> submits = std::make_shared<SubmitTimes>();
  double setup_s = 0, ctor_s = 0, swim_gen_s = 0;
};

WarehouseCell warehouse_setup(std::uint64_t input_seed, bool traced) {
  WarehouseCell cell;
  const Clock::time_point t0 = Clock::now();
  osap::ClusterConfig cfg = osap::paper_cluster();
  cfg.num_nodes = kWarehouseNodes;
  cfg.hadoop.map_slots = 2;
  cfg.hadoop.speculative_execution = true;
  cfg.audit.enabled = false;
  const Clock::time_point t_ctor = Clock::now();
  cell.cluster = std::make_unique<osap::Cluster>(cfg);
  cell.ctor_s = since(t_ctor);

  osap::HfspScheduler::Options options;
  options.primitive = osap::PreemptPrimitive::Suspend;
  auto hfsp = std::make_unique<osap::HfspScheduler>(options);
  if (traced) {
    auto timed = std::make_unique<TimedScheduler>(std::move(hfsp));
    cell.timed = timed.get();
    cell.cluster->set_scheduler(std::move(timed));
  } else {
    cell.cluster->set_scheduler(std::move(hfsp));
  }

  osap::SwimConfig swim;
  swim.jobs = kWarehouseJobs;
  swim.mean_interarrival = osap::seconds(600.0 / kWarehouseJobs);
  swim.max_tasks = 12;
  swim.stateful_fraction = 0.2;
  osap::Rng rng(input_seed);
  const Clock::time_point t_gen = Clock::now();
  std::vector<osap::SwimJob> trace = osap::generate_swim_trace(swim, rng);
  cell.swim_gen_s = since(t_gen);

  osap::Cluster& cluster = *cell.cluster;
  for (osap::SwimJob& job : trace) {
    if (traced) {
      cluster.sim().at(job.arrival, [&cluster, ids = cell.ids, submits = cell.submits,
                                     spec = std::move(job.spec)]() mutable {
        const Clock::time_point ts = Clock::now();
        ids->push_back(cluster.submit(std::move(spec)));
        submits->busy_s += since(ts);
        ++submits->calls;
      });
    } else {
      cluster.sim().at(job.arrival,
                       [&cluster, ids = cell.ids, spec = std::move(job.spec)]() mutable {
                         ids->push_back(cluster.submit(std::move(spec)));
                       });
    }
  }
  cell.setup_s = since(t0);
  return cell;
}

std::vector<std::pair<std::string, std::string>> setup_fields(const WarehouseCell& cell) {
  return {{"setup_s", num(cell.setup_s)},
          {"ctor_s", num(cell.ctor_s)},
          {"swim_gen_s", num(cell.swim_gen_s)}};
}

int run_warehouse(const Args& args) {
  const auto input_seed = static_cast<std::uint64_t>(args.num("input_seed"));
  const double seconds = args.num("seconds");
  const bool trace = args.integer("trace") != 0;

  // Set-up is timed on its own, before any simulation has run, so every
  // run measures the same sequence (the first repetition is cold).
  // Each set-up is read against the gauge sampled around it.
  HostGauge gauge;
  std::vector<std::string> setups;
  for (int rep = kWarehouseSetups; rep > 0; --rep) {
    gauge.sample();
    auto fields = setup_fields(warehouse_setup(input_seed, false));
    gauge.sample();
    fields.emplace_back("gauge_s", num(gauge.take().median_s));
    setups.push_back(object(fields));
  }

  // Traced runs spend the first half of the budget untraced and the
  // second half traced, so the overhead ratio compares like with like.
  std::vector<std::string> iterations;
  std::string observability;
  for (int phase = trace ? 0 : 1; phase < 2; ++phase) {
    const bool traced = trace && phase == 1;
    const Budget budget(trace ? seconds / 2 : seconds);
    for (int done = 0; budget.more(done); ++done) {
      WarehouseCell cell = warehouse_setup(input_seed, traced);
      int ticks = 0;
      const Clock::time_point t_run = Clock::now();
      cell.cluster->run([&gauge, &ticks] {
        if (++ticks % kGaugeEveryTicks == 0) gauge.sample();
      });
      const HostGauge::Reading g = gauge.take();
      const double run_s = since(t_run) - g.spent_s;

      const osap::JobTracker& jt = cell.cluster->job_tracker();
      int jobs_ok = 0;
      for (const osap::JobId id : *cell.ids) {
        jobs_ok += jt.job(id).state == osap::JobState::Succeeded ? 1 : 0;
      }
      auto fields = setup_fields(cell);
      fields.insert(fields.end(),
                    {{"traced", boolean(traced)},
                     {"run_s", num(run_s)},
                     {"gauge_s", num(g.median_s)},
                     {"events", std::to_string(cell.cluster->sim().events_processed())},
                     {"digest", hex(cell.cluster->trace_digest())},
                     {"jobs", std::to_string(cell.ids->size())},
                     {"jobs_ok", std::to_string(jobs_ok)}});
      if (traced) {
        const std::vector<std::uint64_t>& ns = cell.timed->call_ns();
        double busy_ns = 0;
        for (const std::uint64_t v : ns) busy_ns += static_cast<double>(v);
        fields.insert(fields.end(), {{"assign_calls", std::to_string(ns.size())},
                                     {"assign_launches", std::to_string(cell.timed->launches())},
                                     {"assign_busy_s", num(busy_ns / 1e9)},
                                     {"assign_ns_p50", num(percentile(ns, 50))},
                                     {"assign_ns_p99", num(percentile(ns, 99))},
                                     {"submit_calls", std::to_string(cell.submits->calls)},
                                     {"submit_busy_s", num(cell.submits->busy_s)}});
      }
      iterations.push_back(object(fields));
      if (observability.empty()) {
        std::ostringstream os;
        cell.cluster->sim().write_observability_json(os);
        observability = os.str();
      }
    }
  }

  std::cerr << "gauge checksum " << gauge.checksum() << "\n";
  std::cout << object({{"workload", quote("warehouse")},
                       {"jobs", std::to_string(kWarehouseJobs)},
                       {"setups", array(setups)},
                       {"iterations", array(iterations)},
                       {"observability", observability},
                       {"peak_rss_mib", num(peak_rss_mib())}})
            << "\n";
  return 0;
}

// --- contended --------------------------------------------------------------

/// The facade's trace workload under memory pressure, every scheduler
/// that preempts with one queue crossed with every primitive that
/// preempts, over the given simulation seeds.
osap::osapd::MatrixSpec contended_spec(const std::vector<std::string>& seeds) {
  osap::osapd::MatrixSpec spec;
  spec.axes["workload"] = {"trace"};
  spec.axes["scheduler"] = {"hfsp", "fair", "deadline"};
  spec.axes["primitive"] = {"susp", "kill", "natjam"};
  spec.axes["seed"] = seeds;
  spec.axes["nodes"] = {"8"};
  spec.axes["jobs"] = {"400"};
  spec.axes["state"] = {"3GiB"};
  spec.axes["stateful"] = {"0.5"};
  spec.axes["policy"] = {"primitive"};
  spec.axes["deadline_factor"] = {"60"};
  return spec;
}

/// Set-up samples timed per run.
constexpr int kContendedSetups = 7;
/// A contended cell fires ~100k events; this gives it about 6 samples.
constexpr int kContendedGaugeEveryTicks = 8;

std::string counters_object(const std::vector<std::pair<std::string, std::uint64_t>>& counters) {
  std::vector<std::pair<std::string, std::string>> fields;
  fields.reserve(counters.size());
  for (const auto& [name, value] : counters) fields.emplace_back(name, std::to_string(value));
  return object(fields);
}

/// The contents of a file the run wrote, which is then removed; "null"
/// when there is none (a failed cell ends before its counters file is
/// written).
std::string take_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "null";
  std::ostringstream text;
  text << in.rdbuf();
  in.close();
  std::filesystem::remove(path);
  return text.str();
}

int run_contended(const Args& args) {
  const double seconds = args.num("seconds");
  const bool trace = args.integer("trace") != 0;
  const std::filesystem::path tmp = args.str("tmp");

  // Set-up: matrix expansion and normalization up to the first cell.
  // One expansion takes tens of microseconds, so each sample times a
  // batch of them.
  constexpr int kBatch = 500;
  const osap::osapd::MatrixSpec spec = contended_spec(args.list("seeds"));
  HostGauge gauge;
  std::vector<double> setup_s;
  std::vector<double> setup_gauge_s;
  std::vector<RunDescriptor> cells;
  for (int rep = kContendedSetups; rep > 0; --rep) {
    gauge.sample();
    const Clock::time_point t0 = Clock::now();
    for (int b = 0; b < kBatch; ++b) cells = osap::osapd::expand(spec);
    setup_s.push_back(since(t0) / kBatch);
    gauge.sample();
    setup_gauge_s.push_back(gauge.take().median_s);
  }

  // As in warehouse: traced runs time an untraced half, then one traced
  // pass that writes each cell's counters file.
  std::vector<std::string> passes;
  for (int phase = trace ? 0 : 1; phase < 2; ++phase) {
    const bool traced = trace && phase == 1;
    const Budget budget(trace ? seconds / 2 : seconds);
    for (int done = 0; budget.more(done) && !(traced && done > 0); ++done) {
      std::vector<std::string> records;
      std::vector<std::uint64_t> digests;
      const Clock::time_point t_pass = Clock::now();
      for (std::size_t i = 0; i < cells.size(); ++i) {
        osap::core::RunOptions opts;
        if (traced) opts.counters_file = (tmp / ("cell-" + std::to_string(i) + ".json")).string();
        int ticks = 0;
        opts.tick = [&gauge, &ticks] {
          if (++ticks % kContendedGaugeEveryTicks == 0) gauge.sample();
        };
        const Clock::time_point t0 = Clock::now();
        const osap::core::ResultRecord rec = osap::core::run_descriptor(cells[i], opts);
        const double wall_s = since(t0) - gauge.spent();
        gauge.sample();
        const HostGauge::Reading g = gauge.take();
        digests.push_back(rec.trace_digest);
        records.push_back(object({{"ok", boolean(rec.ok)},
                                  {"error", quote(error_lines(rec.error))},
                                  {"events", std::to_string(rec.events)},
                                  {"wall_s", num(wall_s)},
                                  {"gauge_s", num(g.median_s)},
                                  {"counters", counters_object(rec.counters)},
                                  {"observability", traced ? take_file(opts.counters_file) : "null"}}));
      }
      passes.push_back(object({{"traced", boolean(traced)},
                               {"wall_s", num(since(t_pass))},
                               {"digest", hex(fold(digests))},
                               {"cells", array(records)}}));
    }
  }

  std::vector<std::string> descriptors;
  for (const RunDescriptor& d : cells) descriptors.push_back(quote(d.canonical()));
  std::cerr << "gauge checksum " << gauge.checksum() << "\n";
  std::cout << object({{"workload", quote("contended")},
                       {"descriptors", array(descriptors)},
                       {"setup_s", num_array(setup_s)},
                       {"setup_gauge_s", num_array(setup_gauge_s)},
                       {"passes", array(passes)},
                       {"peak_rss_mib", num(peak_rss_mib())}})
            << "\n";
  return 0;
}

// --- sweep ------------------------------------------------------------------

/// Progress sink for run_sweep that stamps the arrival of the first
/// terminal-cell line and discards the rest.
class FirstCellStamp final : public std::streambuf {
 public:
  void arm() {
    line_.clear();
    stamped_ = false;
  }
  [[nodiscard]] bool stamped() const noexcept { return stamped_; }
  [[nodiscard]] Clock::time_point at() const noexcept { return at_; }

 protected:
  int_type overflow(int_type ch) override {
    if (ch == traits_type::eof() || stamped_) return traits_type::not_eof(ch);
    if (ch == '\n') {
      if (line_.find("\"event\":\"cell\"") != std::string::npos) {
        at_ = Clock::now();
        stamped_ = true;
      }
      line_.clear();
    } else {
      line_ += static_cast<char>(ch);
    }
    return ch;
  }

 private:
  std::string line_;
  bool stamped_ = false;
  Clock::time_point at_{};
};

/// Gauge samples taken before each run_sweep round.
constexpr int kSweepGaugePerRound = 3;

struct SweepPass {
  /// Terminal results, indices rebased onto the concatenated rounds.
  std::vector<osap::osapd::CellResult> cells;
  /// Expansion plus pool start up to the first result, one per round
  /// that ran the pool (no cache hits).
  std::vector<double> setup_s;
  double wall_s = 0;
  /// Median gauge time over the samples taken between the rounds.
  double gauge_s = 0;
  double expand_s = 0;
  std::uint64_t cache_hits = 0, cache_stores = 0, worker_deaths = 0, rescheduled = 0;
};

/// Resolve every round of the grid through run_sweep against one cache
/// directory. `descriptors` receives the concatenated rounds.
SweepPass sweep_pass(const std::vector<osap::osapd::MatrixSpec>& rounds,
                     std::vector<RunDescriptor>& descriptors,
                     const osap::osapd::SweepOptions& base, HostGauge& gauge) {
  SweepPass pass;
  FirstCellStamp stamp;
  std::ostream progress(&stamp);
  osap::osapd::SweepOptions opts = base;
  opts.progress = &progress;
  descriptors.clear();
  const Clock::time_point t_pass = Clock::now();
  for (const osap::osapd::MatrixSpec& spec : rounds) {
    // The gauge runs between rounds, while the pool's workers are gone.
    for (int k = 0; k < kSweepGaugePerRound; ++k) gauge.sample();
    const Clock::time_point t0 = Clock::now();
    std::vector<RunDescriptor> round = osap::osapd::expand(spec);
    pass.expand_s += since(t0);
    stamp.arm();
    osap::osapd::SweepOutcome out = osap::osapd::run_sweep(round, opts);
    if (stamp.stamped() && out.cache_hits == 0) {
      pass.setup_s.push_back(std::chrono::duration<double>(stamp.at() - t0).count());
    }
    for (osap::osapd::CellResult& cell : out.cells) {
      cell.index += descriptors.size();
      pass.cells.push_back(std::move(cell));
    }
    descriptors.insert(descriptors.end(), round.begin(), round.end());
    pass.cache_hits += out.cache_hits;
    pass.cache_stores += out.cache_stores;
    pass.worker_deaths += out.worker_deaths;
    pass.rescheduled += out.rescheduled;
  }
  const HostGauge::Reading g = gauge.take();
  pass.wall_s = since(t_pass) - g.spent_s;
  pass.gauge_s = g.median_s;
  return pass;
}

/// The summary JSON up to its volatile tail (harness counters and wall
/// time), which legitimately differs between a cold and a warm pass.
std::string summary_head(const std::vector<RunDescriptor>& descriptors,
                         const std::vector<osap::osapd::CellResult>& cells) {
  std::ostringstream out;
  osap::osapd::write_summary_json(out, descriptors, cells, false, {}, 0);
  const std::string summary = out.str();
  return summary.substr(0, summary.rfind(",\"counters\":{"));
}

void sort_by_descriptor(std::vector<osap::osapd::CellResult>& cells) {
  std::sort(cells.begin(), cells.end(),
            [](const auto& a, const auto& b) { return a.index < b.index; });
}

/// Where two texts first differ, with a little context; "" when equal.
std::string first_difference(const std::string& a, const std::string& b) {
  const auto [ia, ib] = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
  if (ia == a.end() && ib == b.end()) return "";
  const std::size_t at = static_cast<std::size_t>(ia - a.begin());
  const std::size_t from = at < 60 ? 0 : at - 60;
  return a.substr(from, at - from + 30) + " <> " + b.substr(from, at - from + 30);
}

/// One pass's figures; `pass.cells` must be in descriptor order, which
/// the digest fold assumes. Only these few numbers outlive the pass, so the
/// harness's resident set does not grow with the number of passes (the
/// forked workers inherit it).
std::string sweep_pass_json(const SweepPass& pass, const std::string& kind,
                            std::vector<std::pair<std::string, std::string>> extra) {
  std::uint64_t events = 0;
  std::size_t ok = 0;
  std::vector<double> cell_ms;
  std::vector<std::uint64_t> digests;
  for (const osap::osapd::CellResult& cell : pass.cells) {
    digests.push_back(cell.record.trace_digest);
    if (!cell.ok) continue;
    ++ok;
    events += cell.record.events;
    cell_ms.push_back(cell.record.wall_ms);
  }
  std::vector<std::pair<std::string, std::string>> fields = {
      {"kind", quote(kind)},
      {"wall_s", num(pass.wall_s)},
      {"gauge_s", num(pass.gauge_s)},
      {"expand_s", num(pass.expand_s)},
      {"setup_s", num_array(pass.setup_s)},
      {"cache_hits", std::to_string(pass.cache_hits)},
      {"cache_stores", std::to_string(pass.cache_stores)},
      {"worker_deaths", std::to_string(pass.worker_deaths)},
      {"rescheduled", std::to_string(pass.rescheduled)},
      {"cells", std::to_string(pass.cells.size())},
      {"ok", std::to_string(ok)},
      {"events", std::to_string(events)},
      {"digest", hex(fold(digests))},
      {"cell_ms_p50", num(percentile(cell_ms, 50))},
      {"cell_ms_p99", num(percentile(cell_ms, 99))}};
  fields.insert(fields.end(), extra.begin(), extra.end());
  return object(fields);
}

/// run_sweep calls per pass; each one gives a set-up sample.
constexpr int kSweepRounds = 4;
/// One worker: it shares the harness's processor (pin_to_one_processor),
/// so a second would only take turns with it.
constexpr int kSweepWorkers = 1;

int run_sweep(const Args& args) {
  const double seconds = args.num("seconds");
  const bool trace = args.integer("trace") != 0;
  const int seed_first = args.integer("seed_first");
  const int seed_count = args.integer("seed_count");
  const std::filesystem::path tmp = args.str("tmp");

  // The paper's Fig. 2 grid, split into kSweepRounds seed ranges.
  std::vector<osap::osapd::MatrixSpec> specs;
  for (int r = 0; r < kSweepRounds; ++r) {
    osap::osapd::MatrixSpec spec;
    spec.axes["workload"] = {"two_job"};
    spec.axes["primitive"] = {"wait", "kill", "susp"};
    spec.axes["r"] = {"0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9"};
    spec.axes["tl_state"] = {"2GiB"};
    spec.axes["th_state"] = {"2GiB"};
    for (int s = seed_first + r * seed_count / kSweepRounds;
         s < seed_first + (r + 1) * seed_count / kSweepRounds; ++s) {
      spec.axes["seed"].push_back(std::to_string(s));
    }
    if (!spec.axes["seed"].empty()) specs.push_back(std::move(spec));
  }

  osap::osapd::SweepOptions opts;
  opts.pool.workers = kSweepWorkers;
  opts.pool.now_ms = now_ms;

  // Each repetition: a pass without the cache, a cold pass into a fresh
  // cache, then a warm pass over the same cells that must be answered
  // from it. Every cold cell creates a file, and file creation on a
  // shared disk costs 0.25-0.5 ms and drifts by 2x over minutes, so the
  // uncached pass is the one that gives the run's steady figures.
  std::vector<std::string> passes;
  std::vector<RunDescriptor> descriptors;
  HostGauge gauge;
  const Budget budget(seconds);
  for (int done = 0; budget.more(done); ++done) {
    opts.cache_dir.clear();
    SweepPass uncached = sweep_pass(specs, descriptors, opts, gauge);
    sort_by_descriptor(uncached.cells);
    passes.push_back(sweep_pass_json(uncached, "uncached", {}));

    const std::filesystem::path cache = tmp / ("cache-" + std::to_string(done));
    std::filesystem::remove_all(cache);
    opts.cache_dir = cache.string();
    SweepPass cold = sweep_pass(specs, descriptors, opts, gauge);
    SweepPass warm = sweep_pass(specs, descriptors, opts, gauge);
    std::filesystem::remove_all(cache);

    // The cache check compares summaries built from the same cell order;
    // the order check compares the summary over cells in completion
    // order (what the osapd CLI writes) with the descriptor-order one.
    const Clock::time_point t0 = Clock::now();
    const std::string cold_as_completed = summary_head(descriptors, cold.cells);
    const double summary_s = since(t0);
    sort_by_descriptor(cold.cells);
    sort_by_descriptor(warm.cells);
    const std::string cold_ordered = summary_head(descriptors, cold.cells);
    const std::string warm_ordered = summary_head(descriptors, warm.cells);

    passes.push_back(sweep_pass_json(
        cold, "cold",
        {{"summary_s", num(summary_s)},
         {"order_difference", quote(first_difference(cold_as_completed, cold_ordered))}}));
    passes.push_back(sweep_pass_json(
        warm, "warm", {{"cache_difference", quote(first_difference(cold_ordered, warm_ordered))}}));
  }

  std::vector<std::pair<std::string, std::string>> fields = {
      {"workload", quote("sweep")},
      {"workers", std::to_string(opts.pool.workers)},
      {"passes", array(passes)}};

  // Traced: an in-process reference pass over the same cells separates
  // the simulation's own time (core) from the harness's (osapd).
  if (trace) {
    std::vector<double> cell_ms;
    std::vector<std::uint64_t> digests;
    const Clock::time_point t_ref = Clock::now();
    for (const RunDescriptor& d : descriptors) {
      const Clock::time_point t0 = Clock::now();
      const osap::core::ResultRecord rec = osap::core::run_descriptor(d);
      cell_ms.push_back(since(t0) * 1e3);
      digests.push_back(rec.trace_digest);
    }
    fields.emplace_back("reference", object({{"wall_s", num(since(t_ref))},
                                             {"cell_ms", num_array(cell_ms)},
                                             {"digest", hex(fold(digests))}}));
  }
  std::cerr << "gauge checksum " << gauge.checksum() << "\n";
  fields.emplace_back("peak_rss_mib", num(peak_rss_mib()));
  std::cout << object(fields) << "\n";
  return 0;
}

/// Keeps this process, and the sweep workers it forks, on the processor it
/// started on, so the gauge reads the processor the program ran on.
void pin_to_one_processor() {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(sched_getcpu(), &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::runtime_error("usage: perfbench_harness <workload> key=value...");
    pin_to_one_processor();
    const std::string workload = argv[1];
    const Args args(argc, argv);
    if (workload == "warehouse") return run_warehouse(args);
    if (workload == "contended") return run_contended(args);
    if (workload == "sweep") return run_sweep(args);
    throw std::runtime_error("unknown workload '" + workload + "'");
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 2;
  }
}
