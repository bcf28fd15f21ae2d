#include "obs/det_audit.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/env.h"
#include "core/error.h"
#include "obs/registry.h"

namespace mhbench::obs {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::string Hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return std::string(buf);
}

}  // namespace

void DetHash::Update(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ p[i]) * kFnvPrime;
}

void DetHash::UpdateU64(std::uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<unsigned char>(v >> (8 * i));
  }
  Update(b, sizeof(b));
}

void DetHash::UpdateI64(std::int64_t v) {
  UpdateU64(static_cast<std::uint64_t>(v));
}

void DetHash::UpdateF64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double is 8 bytes");
  std::memcpy(&bits, &v, sizeof(bits));
  UpdateU64(bits);
}

void DetHash::UpdateString(const std::string& s) {
  UpdateU64(s.size());
  Update(s.data(), s.size());
}

DetAuditor::DetAuditor(std::string path) : path_(std::move(path)) {
  if (!path_.empty()) {
    out_.open(path_, std::ios::out | std::ios::trunc);
    MHB_CHECK(out_.is_open()) << "cannot open det-audit ledger" << path_;
  }
  const std::string inject = EnvString("MHB_DET_AUDIT_INJECT", "");
  if (!inject.empty()) {
    const std::size_t at = inject.find('@');
    inject_component_ = inject.substr(0, at);
    if (at != std::string::npos) {
      inject_round_ = std::atoi(inject.c_str() + at + 1);
    }
  }
}

void DetAuditor::WriteHeader(const std::string& algorithm, std::uint64_t seed,
                             int rounds, int threads) {
  if (!out_.is_open()) return;
  out_ << "{\"det_audit\": 1, \"algorithm\": \"" << algorithm
       << "\", \"seed\": " << seed << ", \"rounds\": " << rounds
       << ", \"threads\": " << threads << "}\n";
  out_.flush();
}

void DetAuditor::RecordRound(
    int round, std::vector<std::pair<std::string, std::uint64_t>> components) {
  if (!inject_component_.empty() && round >= inject_round_) {
    for (auto& [name, hash] : components) {
      if (name == inject_component_) hash ^= 0x9E3779B97F4A7C15ULL;
    }
  }
  DetHash link;
  link.UpdateU64(chain_);
  link.UpdateI64(round);
  for (const auto& [name, hash] : components) {
    link.UpdateString(name);
    link.UpdateU64(hash);
  }
  chain_ = link.value();
  if (out_.is_open()) {
    out_ << "{\"round\": " << round << ", \"chain\": \"" << Hex(chain_)
         << "\", \"components\": {";
    bool first = true;
    for (const auto& [name, hash] : components) {
      if (!first) out_ << ", ";
      first = false;
      out_ << "\"" << name << "\": \"" << Hex(hash) << "\"";
    }
    out_ << "}}\n";
    out_.flush();
  }
  Round entry;
  entry.round = round;
  entry.chain = chain_;
  entry.components = std::move(components);
  rounds_.push_back(std::move(entry));
}

bool DetAuditor::AuditableMetric(const std::string& name) {
  if (name == "pool_tasks") return false;
  if (name.rfind("checkpoint_", 0) == 0) return false;
  const std::string base = SplitTierKey(name).base;
  for (const char* suffix : {"_us", "_ms"}) {
    const std::size_t n = std::strlen(suffix);
    if (base.size() >= n && base.compare(base.size() - n, n, suffix) == 0) {
      return false;
    }
  }
  return true;
}

}  // namespace mhbench::obs
