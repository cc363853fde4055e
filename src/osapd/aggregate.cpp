#include "osapd/aggregate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <ostream>
#include <set>

#include "osapd/expand.hpp"
#include "osapd/record.hpp"

namespace osap::osapd {

namespace {

/// Nearest-rank percentile over an ascending sample vector.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const std::size_t rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size()))));
  return sorted[std::min(rank, sorted.size()) - 1];
}

/// A value's magnitude when it is a finite number with an optional
/// B/KiB/MiB/GiB suffix (the descriptor spelling of sizes, e.g. "320MiB").
bool magnitude(const std::string& value, double& out) {
  char* end = nullptr;
  const double x = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || !std::isfinite(x)) return false;
  const std::string suffix(end);
  double scale = 1;
  if (suffix == "KiB") {
    scale = 1024.0;
  } else if (suffix == "MiB") {
    scale = 1024.0 * 1024;
  } else if (suffix == "GiB") {
    scale = 1024.0 * 1024 * 1024;
  } else if (!suffix.empty() && suffix != "B") {
    return false;
  }
  out = x * scale;
  return true;
}

/// By magnitude when every value has one (ties broken lexically, so the
/// order stays total), lexicographically otherwise.
void sort_axis_values(std::vector<std::string>& values) {
  std::vector<std::pair<double, std::string>> keyed;
  keyed.reserve(values.size());
  for (const std::string& v : values) {
    double m = 0;
    if (!magnitude(v, m)) {
      std::sort(values.begin(), values.end());
      return;
    }
    keyed.emplace_back(m, v);
  }
  std::sort(keyed.begin(), keyed.end());
  for (std::size_t i = 0; i < keyed.size(); ++i) values[i] = std::move(keyed[i].second);
}

/// Cells sorted by descriptor index. Floating-point sums depend on the
/// order of addition, so means accumulate in this order and never in the
/// pool's completion order.
std::vector<const CellResult*> in_descriptor_order(const std::vector<CellResult>& cells) {
  std::vector<const CellResult*> ordered;
  ordered.reserve(cells.size());
  for (const CellResult& cell : cells) ordered.push_back(&cell);
  std::sort(ordered.begin(), ordered.end(),
            [](const CellResult* a, const CellResult* b) { return a->index < b->index; });
  return ordered;
}

}  // namespace

std::vector<GroupStats> group_stats(const std::vector<core::RunDescriptor>& descriptors,
                                    const std::vector<CellResult>& cells) {
  struct Acc {
    std::vector<double> sojourns;
    double makespan_sum = 0;
    double cost_sum = 0;
    int failed = 0;
  };
  std::map<std::string, Acc> by_key;
  for (const CellResult* cell : in_descriptor_order(cells)) {
    Acc& acc = by_key[cell_key(descriptors[cell->index])];
    if (!cell->ok) {
      ++acc.failed;
      continue;
    }
    acc.sojourns.push_back(cell->record.sojourn_th);
    acc.makespan_sum += cell->record.makespan;
    acc.cost_sum += cell->record.cost;
  }

  std::vector<GroupStats> out;
  out.reserve(by_key.size());
  for (auto& [key, acc] : by_key) {
    GroupStats g;
    g.cell_key = key;
    g.runs = static_cast<int>(acc.sojourns.size());
    g.failed = acc.failed;
    if (g.runs > 0) {
      std::sort(acc.sojourns.begin(), acc.sojourns.end());
      double sum = 0;
      for (const double s : acc.sojourns) sum += s;
      g.mean = sum / g.runs;
      g.p50 = percentile(acc.sojourns, 0.50);
      g.p99 = percentile(acc.sojourns, 0.99);
      g.min = acc.sojourns.front();
      g.max = acc.sojourns.back();
      g.makespan_mean = acc.makespan_sum / g.runs;
      g.cost_mean = acc.cost_sum / g.runs;
    }
    out.push_back(std::move(g));
  }
  return out;
}

PivotTable pivot(const std::vector<core::RunDescriptor>& descriptors,
                 const std::vector<CellResult>& cells) {
  PivotTable table;
  // Axis inventory over the descriptors that actually ran.
  std::map<std::string, std::set<std::string>> axis_values;
  for (const CellResult& cell : cells) {
    for (const auto& [key, val] : descriptors[cell.index].items()) {
      axis_values[key].insert(val);
    }
  }
  if (axis_values.empty()) return table;

  // The multi-valued non-seed axes in sorted key order. A swept
  // primitive is the column axis (one curve per primitive, as in the
  // paper's figures) and the first other axis the rows; otherwise the
  // first two axes are rows x columns. A missing axis is one "all" line.
  std::vector<std::string> swept;
  for (const auto& [key, vals] : axis_values) {
    if (key != "seed" && vals.size() >= 2) swept.push_back(key);
  }
  if (const auto prim = std::find(swept.begin(), swept.end(), "primitive");
      prim != swept.end()) {
    swept.erase(prim);
    table.col_axis = "primitive";
    if (!swept.empty()) table.row_axis = swept[0];
  } else {
    if (!swept.empty()) table.row_axis = swept[0];
    if (swept.size() > 1) table.col_axis = swept[1];
  }
  const auto lines = [&axis_values](const std::string& axis) {
    if (axis.empty()) return std::vector<std::string>{"all"};
    std::vector<std::string> values(axis_values[axis].begin(), axis_values[axis].end());
    sort_axis_values(values);
    return values;
  };
  table.rows = lines(table.row_axis);
  table.cols = lines(table.col_axis);

  struct Acc {
    std::vector<double> sojourns;
    double makespan_sum = 0;
    double swapped_sum = 0;
  };
  std::map<std::pair<std::string, std::string>, Acc> by_cell;
  for (const CellResult* cell : in_descriptor_order(cells)) {
    if (!cell->ok) continue;
    const core::RunDescriptor& d = descriptors[cell->index];
    Acc& acc = by_cell[{d.get(table.row_axis, "all"), d.get(table.col_axis, "all")}];
    acc.sojourns.push_back(cell->record.sojourn_th);
    acc.makespan_sum += cell->record.makespan;
    acc.swapped_sum += cell->record.tl_swapped_out_mib;
  }

  const std::vector<double> empty_row(table.cols.size(), -1);
  for (auto* m : {&table.values, &table.p50, &table.p99, &table.makespan,
                  &table.tl_swapped_out_mib}) {
    m->assign(table.rows.size(), empty_row);
  }
  for (std::size_t r = 0; r < table.rows.size(); ++r) {
    for (std::size_t c = 0; c < table.cols.size(); ++c) {
      const auto at = by_cell.find({table.rows[r], table.cols[c]});
      if (at == by_cell.end()) continue;
      Acc& acc = at->second;
      std::sort(acc.sojourns.begin(), acc.sojourns.end());
      double sum = 0;
      for (const double s : acc.sojourns) sum += s;
      const auto n = static_cast<double>(acc.sojourns.size());
      table.values[r][c] = sum / n;
      table.p50[r][c] = percentile(acc.sojourns, 0.50);
      table.p99[r][c] = percentile(acc.sojourns, 0.99);
      table.makespan[r][c] = acc.makespan_sum / n;
      table.tl_swapped_out_mib[r][c] = acc.swapped_sum / n;
    }
  }
  return table;
}

std::vector<FrontierPoint> frontier(const std::vector<core::RunDescriptor>& descriptors,
                                    const std::vector<CellResult>& cells) {
  struct Acc {
    int runs = 0;
    double cost_sum = 0, sojourn_sum = 0, makespan_sum = 0;
  };
  // Key: (node_mix text, revoke_react text). std::map gives sorted
  // traversal; the final sort below fixes numeric node_mix order.
  std::map<std::pair<std::string, std::string>, Acc> by_point;
  for (const CellResult* cell : in_descriptor_order(cells)) {
    if (!cell->ok) continue;
    const core::RunDescriptor& d = descriptors[cell->index];
    const std::string* mix = d.find("node_mix");
    const std::string* react = d.find("revoke_react");
    if (mix == nullptr || react == nullptr) continue;
    Acc& acc = by_point[{*mix, *react}];
    ++acc.runs;
    acc.cost_sum += cell->record.cost;
    acc.sojourn_sum += cell->record.sojourn_th;
    acc.makespan_sum += cell->record.makespan;
  }

  std::vector<FrontierPoint> out;
  out.reserve(by_point.size());
  for (const auto& [key, acc] : by_point) {
    FrontierPoint p;
    p.node_mix = key.first;
    p.revoke_react = key.second;
    p.runs = acc.runs;
    p.cost_mean = acc.cost_sum / acc.runs;
    p.sojourn_mean = acc.sojourn_sum / acc.runs;
    p.makespan_mean = acc.makespan_sum / acc.runs;
    out.push_back(std::move(p));
  }
  std::sort(out.begin(), out.end(), [](const FrontierPoint& a, const FrontierPoint& b) {
    const double am = std::strtod(a.node_mix.c_str(), nullptr);
    const double bm = std::strtod(b.node_mix.c_str(), nullptr);
    if (am != bm) return am < bm;
    return a.revoke_react < b.revoke_react;
  });
  return out;
}

void write_summary_json(std::ostream& out,
                        const std::vector<core::RunDescriptor>& descriptors,
                        const std::vector<CellResult>& cells, bool cancelled,
                        const std::vector<std::pair<std::string, std::uint64_t>>& harness,
                        double wall_ms) {
  // Completion order is pool-scheduling noise; canonical order is not.
  std::vector<const CellResult*> ordered;
  ordered.reserve(cells.size());
  for (const CellResult& cell : cells) ordered.push_back(&cell);
  std::sort(ordered.begin(), ordered.end(), [&](const CellResult* a, const CellResult* b) {
    return descriptors[a->index].canonical() < descriptors[b->index].canonical();
  });

  int ok_count = 0;
  for (const CellResult& cell : cells) ok_count += cell.ok ? 1 : 0;

  out << "{\"schema\":\"osapd-summary-v1\"";
  out << ",\"cancelled\":" << (cancelled ? "true" : "false");
  out << ",\"cells_total\":" << descriptors.size();
  out << ",\"cells_done\":" << cells.size();
  out << ",\"cells_ok\":" << ok_count;
  out << ",\"cells_failed\":" << (cells.size() - static_cast<std::size_t>(ok_count));

  out << ",\"results\":[";
  bool first = true;
  for (const CellResult* cell : ordered) {
    const core::ResultRecord& rec = cell->record;
    if (!first) out << ',';
    first = false;
    out << "{\"descriptor\":\"" << json_escape(descriptors[cell->index].canonical()) << '"'
        << ",\"config_digest\":\"" << hex_u64(descriptors[cell->index].digest()) << '"'
        << ",\"ok\":" << (cell->ok ? "true" : "false") << ",\"error\":\""
        << json_escape(cell->error) << '"' << ",\"trace_digest\":\""
        << hex_u64(rec.trace_digest) << '"' << ",\"events\":" << rec.events
        << ",\"jobs\":" << rec.jobs << ",\"sojourn_th\":" << json_num(rec.sojourn_th)
        << ",\"sojourn_tl\":" << json_num(rec.sojourn_tl)
        << ",\"makespan\":" << json_num(rec.makespan) << ",\"cost\":" << json_num(rec.cost)
        << ",\"tl_swapped_out_mib\":" << json_num(rec.tl_swapped_out_mib) << '}';
  }
  out << ']';

  out << ",\"groups\":[";
  first = true;
  for (const GroupStats& g : group_stats(descriptors, cells)) {
    if (!first) out << ',';
    first = false;
    out << "{\"cell\":\"" << json_escape(g.cell_key) << "\",\"runs\":" << g.runs
        << ",\"failed\":" << g.failed << ",\"sojourn_th\":{\"mean\":" << json_num(g.mean)
        << ",\"p50\":" << json_num(g.p50) << ",\"p99\":" << json_num(g.p99)
        << ",\"min\":" << json_num(g.min) << ",\"max\":" << json_num(g.max)
        << "},\"makespan_mean\":" << json_num(g.makespan_mean)
        << ",\"cost_mean\":" << json_num(g.cost_mean) << '}';
  }
  out << ']';

  const PivotTable table = pivot(descriptors, cells);
  out << ",\"pivot\":{\"row_axis\":\"" << json_escape(table.row_axis) << "\",\"col_axis\":\""
      << json_escape(table.col_axis) << "\",\"rows\":[";
  for (std::size_t r = 0; r < table.rows.size(); ++r) {
    out << (r > 0 ? "," : "") << '"' << json_escape(table.rows[r]) << '"';
  }
  out << "],\"cols\":[";
  for (std::size_t c = 0; c < table.cols.size(); ++c) {
    out << (c > 0 ? "," : "") << '"' << json_escape(table.cols[c]) << '"';
  }
  out << "],\"values\":[";
  const auto write_matrix = [&out](const std::vector<std::vector<double>>& m) {
    for (std::size_t r = 0; r < m.size(); ++r) {
      out << (r > 0 ? "," : "") << '[';
      for (std::size_t c = 0; c < m[r].size(); ++c) {
        out << (c > 0 ? "," : "") << json_num(m[r][c]);
      }
      out << ']';
    }
  };
  write_matrix(table.values);
  out << "],\"p50\":[";
  write_matrix(table.p50);
  out << "],\"p99\":[";
  write_matrix(table.p99);
  out << "],\"makespan\":[";
  write_matrix(table.makespan);
  out << "],\"tl_swapped_out_mib\":[";
  write_matrix(table.tl_swapped_out_mib);
  out << "]}";

  // Cost vs. mean-sojourn frontier (docs/REVOKE.md) — empty for
  // matrices without the revocation axes.
  out << ",\"frontier\":[";
  first = true;
  for (const FrontierPoint& p : frontier(descriptors, cells)) {
    if (!first) out << ',';
    first = false;
    out << "{\"node_mix\":\"" << json_escape(p.node_mix) << "\",\"revoke_react\":\""
        << json_escape(p.revoke_react) << "\",\"runs\":" << p.runs
        << ",\"cost_mean\":" << json_num(p.cost_mean)
        << ",\"sojourn_mean\":" << json_num(p.sojourn_mean)
        << ",\"makespan_mean\":" << json_num(p.makespan_mean) << '}';
  }
  out << ']';

  // Volatile tail: harness counters and wall time vary run to run (cache
  // hits, worker deaths, real time) — CI strips these before diffing.
  out << ",\"counters\":{";
  first = true;
  for (const auto& [name, count] : harness) {
    if (!first) out << ',';
    first = false;
    out << '"' << json_escape(name) << "\":" << count;
  }
  out << "},\"wall_ms\":" << json_num(wall_ms);
  out << "}\n";
}

}  // namespace osap::osapd
