// Shared helpers of the serving benchmark: clock, order statistics, a tiny
// JSON writer and the metric record every report line is built from.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank percentile of an unsorted sample (p in [0, 1]); 0 if empty.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(p * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

inline double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Cumulative CPU time of the whole VM from /proc/stat, in jiffies: `steal`
/// is time the hypervisor ran something else while a vCPU wanted to run.
struct CpuSample {
  std::uint64_t at_ns = 0;
  double steal = 0.0;
  double total = 0.0;
};

inline CpuSample sample_cpu() {
  CpuSample sample;
  sample.at_ns = mono_ns();
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) return sample;
  double fields[8] = {};  // user nice system idle iowait irq softirq steal
  if (std::fscanf(stat, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &fields[0], &fields[1],
                  &fields[2], &fields[3], &fields[4], &fields[5], &fields[6], &fields[7]) == 8) {
    for (const double f : fields) sample.total += f;
    sample.steal = fields[7];
  }
  std::fclose(stat);
  return sample;
}

/// Share of CPU time stolen between two samples.
inline double steal_between(const CpuSample& from, const CpuSample& to) {
  return ratio(to.steal - from.steal, to.total - from.total);
}

/// One named measurement with its unit, in report order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Minimal JSON object writer: keys in insertion order, doubles printed with
/// all 17 significant digits so no measured digit is lost.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return raw(key, buf);
  }
  JsonObject& integer(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& boolean(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) quoted += c;
    }
    return raw(key, quoted + "\"");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "\"" : ", \"";
    body_ += key;
    body_ += "\": ";
    body_ += json;
    return *this;
  }
  /// Each metric as {"value": v, "unit": u}.
  JsonObject& metrics(const std::string& key, const std::vector<Metric>& list) {
    JsonObject inner;
    for (const Metric& m : list) {
      JsonObject entry;
      entry.num("value", m.value).str("unit", m.unit);
      inner.raw(m.name, entry.text());
    }
    return raw(key, inner.text());
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace perfbench
