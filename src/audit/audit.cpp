#include "audit/audit.hpp"

#include <cstddef>
#include <sstream>

namespace osap {

namespace {

/// "[label] message", built by appending to one buffer. The chained
/// `"[" + label + "] " + message` form, once inlined into run()/sweep(),
/// trips GCC 12's -Wrestrict false positive in Release builds.
std::string labelled(const InvariantAuditor& auditor, const std::string& message) {
  std::string out = "[";
  out += auditor.audit_label();
  out += "] ";
  out += message;
  return out;
}

}  // namespace

void AuditRegistry::add(InvariantAuditor* auditor) {
  if (auditor == nullptr || !index_.try_emplace(auditor, entries_.size()).second) return;
  entries_.push_back(Entry{auditor, AuditorCost{auditor->audit_label(), 0, 0}});
}

void AuditRegistry::remove(InvariantAuditor* auditor) {
  const auto it = index_.find(auditor);
  if (it == index_.end()) return;
  Entry& entry = entries_[it->second];
  retired_costs_.push_back(std::move(entry.cost));
  entry.auditor = nullptr;
  index_.erase(it);
  if (entries_.size() <= 2 * index_.size()) return;
  std::erase_if(entries_, [](const Entry& e) { return e.auditor == nullptr; });
  for (std::size_t i = 0; i < entries_.size(); ++i) index_[entries_[i].auditor] = i;
}

void AuditRegistry::run(std::vector<std::string>& violations) const {
  for (const Entry& entry : entries_) {
    const InvariantAuditor* auditor = entry.auditor;
    if (auditor == nullptr) continue;
    std::vector<std::string> found;
    auditor->audit(found);
    for (const std::string& message : found) violations.push_back(labelled(*auditor, message));
  }
}

AuditRegistry::SweepStats AuditRegistry::sweep(std::vector<std::string>& violations) {
  ++sweeps_;
  SweepStats stats;
  for (Entry& entry : entries_) {
    InvariantAuditor* auditor = entry.auditor;
    if (auditor == nullptr) continue;
    if (auditor->audit_supports_dirty() && !auditor->audit_dirty()) {
      ++stats.skipped;
      ++entry.cost.skipped;
      continue;
    }
    ++stats.swept;
    ++entry.cost.swept;
    std::vector<std::string> found;
    auditor->audit(found);
    if (found.empty()) {
      // Clean pass: safe to skip until the next mutation re-dirties.
      if (auditor->audit_supports_dirty()) auditor->clear_audit_dirty();
      continue;
    }
    for (const std::string& message : found) violations.push_back(labelled(*auditor, message));
  }
  return stats;
}

std::vector<AuditRegistry::AuditorCost> AuditRegistry::costs() const {
  std::vector<AuditorCost> all = retired_costs_;
  for (const Entry& entry : entries_) {
    if (entry.auditor != nullptr) all.push_back(entry.cost);
  }
  return all;
}

std::string AuditRegistry::dump_all() const {
  std::ostringstream os;
  for (const Entry& entry : entries_) {
    if (entry.auditor == nullptr) continue;
    os << "--- " << entry.auditor->audit_label() << " ---\n";
    entry.auditor->dump(os);
  }
  return os.str();
}

}  // namespace osap
