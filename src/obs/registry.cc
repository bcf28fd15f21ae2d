#include "obs/registry.h"

#include <algorithm>
#include <array>
#include <limits>
#include <utility>

namespace mhbench::obs {

namespace {

// The client-scoped metrics EndRound derives from the staged client rows.
// client_wall_us is wall-clock (its quantiles vary run to run); the other
// values are pure functions of the cost model.
constexpr std::array<const char*, 7> kClientCounters = {
    "clients_selected", "clients_offline", "clients_dropped",
    "clients_trained",  "bytes_up",        "bytes_down",
    "train_mflops"};
constexpr std::array<const char*, 3> kClientHistograms = {
    "client_wall_us", "client_bytes_up", "client_train_mflops"};

// Registry name of a client-scoped metric: `base` itself for the untiered
// total ("" tier), otherwise its tier twin.
std::string ClientKey(const char* base, const std::string& tier) {
  return tier.empty() ? std::string(base) : TierKey(base, tier);
}

// std::bit_width without requiring <bit> (the TSan config builds with
// older language-mode fallbacks elsewhere): position of the highest set
// bit, for v > 0.
int BitWidth(std::uint64_t v) {
  int w = 0;
  while (v != 0) {
    v >>= 1;
    ++w;
  }
  return w;
}

}  // namespace

std::string TierKey(const std::string& base, const std::string& tier) {
  return base + "@" + tier;
}

TierKeyParts SplitTierKey(const std::string& name) {
  const std::size_t at = name.find('@');
  if (at == std::string::npos) return {name, ""};
  return {name.substr(0, at), name.substr(at + 1)};
}

int Registry::BucketIndex(std::int64_t v) {
  if (v <= 0) return 0;
  return BitWidth(static_cast<std::uint64_t>(v));  // 1..63
}

std::int64_t Registry::BucketLo(int bucket) {
  if (bucket <= 0) return 0;
  return std::int64_t{1} << (bucket - 1);
}

std::int64_t Registry::BucketHi(int bucket) {
  if (bucket <= 0) return 0;
  if (bucket >= kHistogramBuckets - 1) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return (std::int64_t{1} << bucket) - 1;
}

std::int64_t Registry::HistogramData::count() const {
  std::int64_t n = 0;
  for (const std::int64_t b : buckets) n += b;
  return n;
}

void Registry::HistogramData::Observe(std::int64_t v) {
  if (count() == 0) {
    min = v;
    max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  buckets[static_cast<std::size_t>(BucketIndex(v))] += 1;
  sum += v;
}

void Registry::HistogramData::Merge(const HistogramData& other) {
  if (other.count() == 0) return;
  if (count() == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  sum += other.sum;
}

double Registry::HistogramData::Quantile(double q) const {
  const std::int64_t n = count();
  if (n == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(n);
  std::int64_t seen = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    const std::int64_t in_bucket = buckets[static_cast<std::size_t>(b)];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= target) {
      // Interpolate within the bucket's [lo, hi] span, then clamp to the
      // observed range so degenerate histograms (single value) are exact.
      const double lo = static_cast<double>(BucketLo(b));
      const double hi = static_cast<double>(BucketHi(b));
      const double frac =
          in_bucket == 0
              ? 0.0
              : (target - static_cast<double>(seen)) /
                    static_cast<double>(in_bucket);
      double v = lo + frac * (hi - lo);
      v = std::max(v, static_cast<double>(min));
      v = std::min(v, static_cast<double>(max));
      return v;
    }
    seen += in_bucket;
  }
  return static_cast<double>(max);
}

Registry::CounterId Registry::Counter(const std::string& name) {
  core::MutexLock lock(mu_);
  return CounterLocked(name);
}

Registry::CounterId Registry::CounterLocked(const std::string& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const CounterId id = names_.size();
  names_.push_back(name);
  ids_.emplace(name, id);
  totals_.push_back(0);
  pending_.push_back(0);
  round_base_.push_back(0);
  return id;
}

Registry::HistogramId Registry::Histogram(const std::string& name) {
  core::MutexLock lock(mu_);
  return HistogramLocked(name);
}

Registry::HistogramId Registry::HistogramLocked(const std::string& name) {
  auto it = hist_ids_.find(name);
  if (it != hist_ids_.end()) return it->second;
  const HistogramId id = hist_names_.size();
  hist_names_.push_back(name);
  hist_ids_.emplace(name, id);
  hist_totals_.emplace_back();
  hist_pending_.emplace_back();
  hist_round_.emplace_back();
  return id;
}

void Registry::Add(CounterId id, std::int64_t delta) {
  core::MutexLock lock(mu_);
  pending_[id] += delta;
}

void Registry::AddNamed(const std::string& name, std::int64_t delta) {
  Add(Counter(name), delta);
}

void Registry::Observe(HistogramId id, std::int64_t value) {
  core::MutexLock lock(mu_);
  hist_pending_[id].Observe(value);
}

void Registry::ObserveNamed(const std::string& name, std::int64_t value) {
  Observe(Histogram(name), value);
}

void Registry::SetGauge(const std::string& name, double value) {
  core::MutexLock lock(mu_);
  gauges_[name] = value;
}

void Registry::RegisterClientTiers(const std::vector<std::string>& tiers) {
  core::MutexLock lock(mu_);
  std::vector<std::string> keyed = {""};  // "" = the untiered names
  keyed.insert(keyed.end(), tiers.begin(), tiers.end());
  for (const std::string& tier : keyed) {
    for (const char* base : kClientCounters) {
      CounterLocked(ClientKey(base, tier));
    }
    for (const char* base : kClientHistograms) {
      HistogramLocked(ClientKey(base, tier));
    }
  }
}

void Registry::FoldClientRowsLocked() {
  static const std::string kNoTier;
  for (const ClientRow& row : client_rows_) {
    const bool trained = row.drop_reason.empty();
    // Parallel to kClientCounters / kClientHistograms.
    const std::array<std::int64_t, kClientCounters.size()> counts = {
        1,
        row.drop_reason == "offline",
        row.drop_reason == "straggler",
        trained,
        trained ? row.bytes_up : 0,
        trained ? row.bytes_down : 0,
        trained ? row.train_mflops : 0};
    const std::array<std::int64_t, kClientHistograms.size()> observed = {
        static_cast<std::int64_t>(row.wall_ms * 1e3), row.bytes_up,
        row.train_mflops};
    // The untiered names, then the row's `<base>@<tier>` twins.
    for (const std::string* tier : {&kNoTier, &row.device_tier}) {
      if (tier != &kNoTier && tier->empty()) continue;
      for (std::size_t i = 0; i < counts.size(); ++i) {
        pending_[CounterLocked(ClientKey(kClientCounters[i], *tier))] +=
            counts[i];
      }
      for (std::size_t i = 0; i < observed.size(); ++i) {
        const HistogramId id =
            HistogramLocked(ClientKey(kClientHistograms[i], *tier));
        if (trained) hist_pending_[id].Observe(observed[i]);
      }
    }
  }
}

void Registry::FlushLocked() {
  for (std::size_t id = 0; id < pending_.size(); ++id) {
    totals_[id] += pending_[id];
    pending_[id] = 0;
  }
  for (std::size_t id = 0; id < hist_pending_.size(); ++id) {
    if (hist_pending_[id].empty()) continue;
    hist_totals_[id].Merge(hist_pending_[id]);
    hist_round_[id].Merge(hist_pending_[id]);
    hist_pending_[id] = HistogramData{};
  }
}

void Registry::Flush() {
  core::MutexLock lock(mu_);
  FlushLocked();
}

void Registry::EndRound(const std::string& run, int round) {
  std::function<void(const RoundRow&)> sink;
  RoundRow published;
  std::function<void(std::vector<ClientRow>&&)> row_sink;
  std::vector<ClientRow> drained;
  {
    core::MutexLock lock(mu_);
    FoldClientRowsLocked();
    FlushLocked();
    // Drain the staged client rows unconditionally: with no sink installed
    // they are simply discarded, so staging memory stays bounded by one
    // round's cohort either way.
    drained.swap(client_rows_);
    row_sink = client_row_sink_;
    RoundRow row;
    row.run = run;
    row.round = round;
    for (std::size_t id = 0; id < totals_.size(); ++id) {
      const std::int64_t delta = totals_[id] - round_base_[id];
      if (delta != 0) row.counters[names_[id]] = delta;
      round_base_[id] = totals_[id];
    }
    // Histogram deltas can't be derived by subtraction (min/max aren't
    // invertible), so a per-round accumulator is kept alongside the totals
    // and reset here.
    for (std::size_t id = 0; id < hist_round_.size(); ++id) {
      if (!hist_round_[id].empty()) {
        row.hists[hist_names_[id]] = hist_round_[id];
      }
      hist_round_[id] = HistogramData{};
    }
    row.gauges = std::move(gauges_);
    gauges_.clear();
    sink = round_sink_;
    if (sink) published = row;  // copy: the sink runs outside the lock
    rounds_.push_back(std::move(row));
  }
  if (sink) sink(published);
  if (row_sink && !drained.empty()) row_sink(std::move(drained));
}

void Registry::SetRoundSink(std::function<void(const RoundRow&)> sink) {
  core::MutexLock lock(mu_);
  round_sink_ = std::move(sink);
}

void Registry::SetClientRowSink(
    std::function<void(std::vector<ClientRow>&&)> sink) {
  core::MutexLock lock(mu_);
  client_row_sink_ = std::move(sink);
}

std::int64_t Registry::Total(const std::string& name) const {
  core::MutexLock lock(mu_);
  auto it = ids_.find(name);
  return it == ids_.end() ? 0 : totals_[it->second];
}

std::map<std::string, std::int64_t> Registry::Totals() const {
  core::MutexLock lock(mu_);
  std::map<std::string, std::int64_t> out;
  for (std::size_t id = 0; id < names_.size(); ++id) {
    out[names_[id]] = totals_[id];
  }
  return out;
}

Registry::HistogramData Registry::HistogramTotals(
    const std::string& name) const {
  core::MutexLock lock(mu_);
  auto it = hist_ids_.find(name);
  return it == hist_ids_.end() ? HistogramData{} : hist_totals_[it->second];
}

std::map<std::string, Registry::HistogramData> Registry::Histograms() const {
  core::MutexLock lock(mu_);
  std::map<std::string, HistogramData> out;
  for (std::size_t id = 0; id < hist_names_.size(); ++id) {
    out[hist_names_[id]] = hist_totals_[id];
  }
  return out;
}

void Registry::ImportTotals(
    const std::map<std::string, std::int64_t>& counters,
    const std::map<std::string, HistogramData>& hists) {
  core::MutexLock lock(mu_);
  for (const auto& [name, delta] : counters) {
    const CounterId id = CounterLocked(name);
    totals_[id] += delta;
    round_base_[id] += delta;
  }
  for (const auto& [name, data] : hists) {
    hist_totals_[HistogramLocked(name)].Merge(data);
  }
}

void Registry::AddClientRow(ClientRow row) {
  core::MutexLock lock(mu_);
  client_rows_.push_back(std::move(row));
}

}  // namespace mhbench::obs
