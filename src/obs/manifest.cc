#include "obs/manifest.h"

#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "core/csv.h"
#include "core/error.h"
#include "obs/profile.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace mhbench::obs {

std::string GitDescribe(const std::string& repo_dir) {
#if defined(_WIN32)
  (void)repo_dir;
  return "unknown";
#else
  const std::string cmd =
      "git -C '" + repo_dir + "' describe --always --dirty 2>/dev/null";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return "unknown";
  char buf[256];
  std::string out;
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  const int status = ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  if (status != 0 || out.empty()) return "unknown";
  return out;
#endif
}

std::string IsoTimestampUtc() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &now);
#else
  gmtime_r(&now, &tm);
#endif
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string SanitizeRunId(const std::string& id) {
  std::string out;
  out.reserve(id.size());
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
    out += ok ? c : '_';
  }
  // ".." (or a bare ".") must not escape the manifest dir.
  if (out.empty() || out.find_first_not_of('.') == std::string::npos) {
    out = "run";
  }
  return out;
}

namespace {

void AppendJsonString(std::ostringstream& out, const std::string& s) {
  out << "\"" << JsonEscape(s) << "\"";
}

std::string FormatDouble(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

// Atomic publish: write to `<path>.tmp`, then rename over `path`.  Readers
// polling the run directory (mhb_watch, the live smoke) never see a torn
// file, and a crash mid-write leaves the previous version intact.
void WriteFileAtomic(const std::filesystem::path& path,
                     const std::string& content) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream f(tmp);
    if (!f.good()) throw Error("cannot open " + tmp.string());
    f << content;
    if (!f.good()) throw Error("failed writing " + tmp.string());
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw Error("cannot move " + tmp.string() + " into place: " +
                ec.message());
  }
}

}  // namespace

void WriteRoundsCsv(const std::string& run_dir, const Registry& registry) {
  if (registry.rounds().empty()) return;
  // Column set: the union of counter / gauge / histogram names over all
  // rows, so every row renders the same schema.
  std::set<std::string> counter_cols;
  std::set<std::string> gauge_cols;
  std::set<std::string> hist_cols;
  for (const auto& row : registry.rounds()) {
    for (const auto& [k, v] : row.counters) counter_cols.insert(k);
    for (const auto& [k, v] : row.gauges) gauge_cols.insert(k);
    for (const auto& [k, v] : row.hists) hist_cols.insert(k);
  }
  std::vector<std::string> header = {"run", "round"};
  header.insert(header.end(), gauge_cols.begin(), gauge_cols.end());
  header.insert(header.end(), counter_cols.begin(), counter_cols.end());
  for (const auto& h : hist_cols) {
    header.push_back(h + "_count");
    header.push_back(h + "_p50");
    header.push_back(h + "_p95");
    header.push_back(h + "_p99");
  }
  CsvWriter csv(header);
  for (const auto& row : registry.rounds()) {
    std::vector<std::string> cells = {row.run, std::to_string(row.round)};
    for (const auto& g : gauge_cols) {
      auto it = row.gauges.find(g);
      std::ostringstream v;
      if (it != row.gauges.end()) v << it->second;
      cells.push_back(v.str());
    }
    for (const auto& c : counter_cols) {
      auto it = row.counters.find(c);
      cells.push_back(
          it == row.counters.end() ? "0" : std::to_string(it->second));
    }
    for (const auto& h : hist_cols) {
      auto it = row.hists.find(h);
      if (it == row.hists.end()) {
        cells.push_back("0");
        cells.push_back("");
        cells.push_back("");
        cells.push_back("");
      } else {
        cells.push_back(std::to_string(it->second.count()));
        cells.push_back(FormatDouble(it->second.Quantile(0.50)));
        cells.push_back(FormatDouble(it->second.Quantile(0.95)));
        cells.push_back(FormatDouble(it->second.Quantile(0.99)));
      }
    }
    csv.AddRow(cells);
  }
  WriteFileAtomic(std::filesystem::path(run_dir) / "rounds.csv",
                  csv.ToString());
}

void WriteTiersCsv(const std::string& run_dir, const Registry& registry) {
  // Column set: the union of `<base>@<tier>` bases over all rows; a row is
  // emitted per (run, round, tier) seen in that round's entries.
  std::set<std::string> counter_cols;
  std::set<std::string> hist_cols;
  for (const auto& row : registry.rounds()) {
    for (const auto& [k, v] : row.counters) {
      const TierKeyParts key = SplitTierKey(k);
      if (!key.tier.empty()) counter_cols.insert(key.base);
    }
    for (const auto& [k, v] : row.hists) {
      const TierKeyParts key = SplitTierKey(k);
      if (!key.tier.empty()) hist_cols.insert(key.base);
    }
  }
  if (counter_cols.empty() && hist_cols.empty()) return;
  std::vector<std::string> header = {"run", "round", "tier"};
  header.insert(header.end(), counter_cols.begin(), counter_cols.end());
  for (const auto& h : hist_cols) {
    header.push_back(h + "_count");
    header.push_back(h + "_p50");
    header.push_back(h + "_p95");
    header.push_back(h + "_p99");
  }
  CsvWriter csv(header);
  for (const auto& row : registry.rounds()) {
    std::set<std::string> row_tiers;
    for (const auto& [k, v] : row.counters) {
      const std::string tier = SplitTierKey(k).tier;
      if (!tier.empty()) row_tiers.insert(tier);
    }
    for (const auto& [k, v] : row.hists) {
      const std::string tier = SplitTierKey(k).tier;
      if (!tier.empty()) row_tiers.insert(tier);
    }
    for (const auto& tier : row_tiers) {
      std::vector<std::string> cells = {row.run, std::to_string(row.round),
                                        tier};
      for (const auto& c : counter_cols) {
        auto it = row.counters.find(TierKey(c, tier));
        cells.push_back(
            it == row.counters.end() ? "0" : std::to_string(it->second));
      }
      for (const auto& h : hist_cols) {
        auto it = row.hists.find(TierKey(h, tier));
        if (it == row.hists.end()) {
          cells.push_back("0");
          cells.push_back("");
          cells.push_back("");
          cells.push_back("");
        } else {
          cells.push_back(std::to_string(it->second.count()));
          cells.push_back(FormatDouble(it->second.Quantile(0.50)));
          cells.push_back(FormatDouble(it->second.Quantile(0.95)));
          cells.push_back(FormatDouble(it->second.Quantile(0.99)));
        }
      }
      csv.AddRow(cells);
    }
  }
  WriteFileAtomic(std::filesystem::path(run_dir) / "tiers.csv",
                  csv.ToString());
}

std::string WriteRunManifest(const std::string& dir, const RunManifest& m,
                             const Registry* registry,
                             const Profiler* profiler) {
  namespace fs = std::filesystem;
  const fs::path run_dir = fs::path(dir) / SanitizeRunId(m.run_id);
  std::error_code ec;
  fs::create_directories(run_dir, ec);
  if (ec) {
    throw Error("cannot create manifest dir " + run_dir.string() + ": " +
                ec.message());
  }

  std::ostringstream json;
  json << "{\n";
  json << "  \"run_id\": ";
  AppendJsonString(json, SanitizeRunId(m.run_id));
  json << ",\n  \"tool\": ";
  AppendJsonString(json, m.tool);
  json << ",\n  \"git_describe\": ";
  AppendJsonString(json, m.git_describe);
  json << ",\n  \"created_utc\": ";
  AppendJsonString(json, m.created_utc);
  json << ",\n  \"seed\": " << m.seed;
  json << ",\n  \"threads\": " << m.threads;
  json << ",\n  \"config\": {";
  for (std::size_t i = 0; i < m.config.size(); ++i) {
    json << (i == 0 ? "\n" : ",\n") << "    ";
    AppendJsonString(json, m.config[i].first);
    json << ": ";
    AppendJsonString(json, m.config[i].second);
  }
  json << "\n  },\n  \"metrics\": {";
  for (std::size_t i = 0; i < m.metrics.size(); ++i) {
    json << (i == 0 ? "\n" : ",\n") << "    ";
    AppendJsonString(json, m.metrics[i].first);
    json << ": " << m.metrics[i].second;
  }
  json << "\n  },\n  \"counters\": {";
  if (registry != nullptr) {
    const auto totals = registry->Totals();
    std::size_t i = 0;
    for (const auto& [name, value] : totals) {
      json << (i++ == 0 ? "\n" : ",\n") << "    ";
      AppendJsonString(json, name);
      json << ": " << value;
    }
  }
  json << "\n  },\n  \"histograms\": {";
  if (registry != nullptr) {
    std::size_t i = 0;
    for (const auto& [name, h] : registry->Histograms()) {
      if (h.empty()) continue;
      json << (i++ == 0 ? "\n" : ",\n") << "    ";
      AppendJsonString(json, name);
      json << ": {\"count\":" << h.count() << ",\"sum\":" << h.sum
           << ",\"min\":" << h.min << ",\"max\":" << h.max
           << ",\"p50\":" << FormatDouble(h.Quantile(0.50))
           << ",\"p95\":" << FormatDouble(h.Quantile(0.95))
           << ",\"p99\":" << FormatDouble(h.Quantile(0.99)) << "}";
    }
  }
  // Per-tier rollups: the `<base>@<tier>` totals regrouped by tier, so
  // report tooling never has to re-split names.  The flat counters /
  // histograms objects above still carry the raw `@` entries — that keeps
  // mhb_diff's exact-counter gate covering the tier dimension for free.
  json << "\n  },\n  \"tiers\": {";
  if (registry != nullptr) {
    std::map<std::string, std::map<std::string, std::int64_t>> tier_counters;
    for (const auto& [name, value] : registry->Totals()) {
      const TierKeyParts key = SplitTierKey(name);
      if (key.tier.empty()) continue;
      tier_counters[key.tier][key.base] = value;
    }
    std::map<std::string, std::map<std::string, Registry::HistogramData>>
        tier_hists;
    for (const auto& [name, h] : registry->Histograms()) {
      const TierKeyParts key = SplitTierKey(name);
      if (key.tier.empty() || h.empty()) continue;
      tier_hists[key.tier][key.base] = h;
    }
    std::set<std::string> tier_names;
    for (const auto& [tier, unused] : tier_counters) tier_names.insert(tier);
    for (const auto& [tier, unused] : tier_hists) tier_names.insert(tier);
    std::size_t i = 0;
    for (const auto& tier : tier_names) {
      json << (i++ == 0 ? "\n" : ",\n") << "    ";
      AppendJsonString(json, tier);
      json << ": {\"counters\": {";
      std::size_t j = 0;
      for (const auto& [name, value] : tier_counters[tier]) {
        json << (j++ == 0 ? "" : ", ");
        AppendJsonString(json, name);
        json << ": " << value;
      }
      json << "}, \"histograms\": {";
      j = 0;
      for (const auto& [name, h] : tier_hists[tier]) {
        json << (j++ == 0 ? "" : ", ");
        AppendJsonString(json, name);
        json << ": {\"count\":" << h.count() << ",\"sum\":" << h.sum
             << ",\"p50\":" << FormatDouble(h.Quantile(0.50))
             << ",\"p95\":" << FormatDouble(h.Quantile(0.95))
             << ",\"p99\":" << FormatDouble(h.Quantile(0.99)) << "}";
      }
      json << "}}";
    }
  }
  json << "\n  },\n  \"rounds\": " << (registry ? registry->rounds().size() : 0)
       << "\n}\n";

  WriteFileAtomic(run_dir / "manifest.json", json.str());

  if (registry != nullptr) {
    WriteRoundsCsv(run_dir.string(), *registry);
    WriteTiersCsv(run_dir.string(), *registry);
  }

  if (profiler != nullptr) {
    const fs::path profile_path = run_dir / "profile.json";
    if (!profiler->WriteJson(profile_path.string())) {
      throw Error("failed writing " + profile_path.string());
    }
  }

  return run_dir.string();
}

}  // namespace mhbench::obs
