#include "bench_harness.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/build_info.hpp"

namespace tgp::bench {

namespace {

using Clock = std::chrono::steady_clock;

double percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0;
  // Nearest-rank: deterministic and meaningful even for tiny rep counts.
  std::size_t rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size()));
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

const char* compiler_id() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

const char* build_kind() {
#if defined(NDEBUG)
  return "release";
#else
  return "debug";
#endif
}

void json_escape(std::ostream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\' << c;
    else if (c == '\n') os << "\\n";
    else os << c;
  }
}

}  // namespace

bool sanitizers_active() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

HarnessOptions parse_args(int argc, char** argv, std::string* json_path) {
  HarnessOptions opt;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", a);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(a, "--json") == 0) {
      if (json_path != nullptr) *json_path = value();
      else value();
    } else if (std::strcmp(a, "--reps") == 0) {
      opt.reps = std::atoi(value());
    } else if (std::strcmp(a, "--warmup") == 0) {
      opt.warmup = std::atoi(value());
    } else if (std::strcmp(a, "--quick") == 0) {
      opt.quick = true;
    } else if (std::strcmp(a, "--trace") == 0) {
      opt.trace = true;
    } else {
      std::fprintf(stderr,
                   "unknown flag %s (want --json <path> --reps <k> "
                   "--warmup <k> --quick --trace)\n",
                   a);
      std::exit(2);
    }
  }
  if (opt.reps < 1) opt.reps = 1;
  if (opt.warmup < 0) opt.warmup = 0;
  if (opt.quick) {
    // Smoke mode: exercise every case body, spend no time measuring.
    opt.warmup = std::min(opt.warmup, 1);
    opt.reps = std::min(opt.reps, 2);
  }
  return opt;
}

Harness::Harness(std::string suite, HarnessOptions opt)
    : suite_(std::move(suite)), opt_(opt) {}

void Harness::run(const std::string& name, double items,
                  const std::function<void()>& body) {
  for (int i = 0; i < opt_.warmup; ++i) body();
  std::vector<double> ns;
  ns.reserve(static_cast<std::size_t>(opt_.reps));
  for (int i = 0; i < opt_.reps; ++i) {
    auto t0 = Clock::now();
    body();
    auto t1 = Clock::now();
    ns.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }
  std::sort(ns.begin(), ns.end());
  CaseResult r;
  r.name = name;
  r.items = items;
  r.reps = opt_.reps;
  r.median_ns = percentile(ns, 0.5);
  r.p95_ns = percentile(ns, 0.95);
  r.min_ns = ns.front();
  results_.push_back(r);
  std::printf("%-48s median %12.0f ns   %8.2f ns/item\n", name.c_str(),
              r.median_ns, r.ns_per_item());
  std::fflush(stdout);
}

void Harness::counter(const std::string& name, std::uint64_t value) {
  if (results_.empty()) {
    std::fprintf(stderr, "counter '%s' before any case — dropped\n",
                 name.c_str());
    return;
  }
  results_.back().counters.emplace_back(name, value);
}

void Harness::print_table() const {
  std::printf("\n%-48s %6s %14s %14s %10s\n", "case", "reps", "median_ns",
              "p95_ns", "ns/item");
  for (const CaseResult& r : results_)
    std::printf("%-48s %6d %14.0f %14.0f %10.2f\n", r.name.c_str(), r.reps,
                r.median_ns, r.p95_ns, r.ns_per_item());
  if (sanitizers_active())
    std::printf("(built with sanitizers: timings are not comparable)\n");
}

bool Harness::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  out << "{\n  \"suite\": \"";
  json_escape(out, suite_);
  out << "\",\n  \"sanitized\": " << (sanitizers_active() ? "true" : "false")
      << ",\n  \"machine\": {\n    \"hardware_threads\": "
      << std::thread::hardware_concurrency() << ",\n    \"compiler\": \"";
  json_escape(out, compiler_id());
  out << "\",\n    \"build\": \"" << build_kind() << "\"\n  },\n";
  // Which build produced this artifact — a committed baseline without
  // this is unattributable once the branch moves.  Older readers skip
  // the object (unknown-field rule).
  out << "  \"provenance\": {\n    \"version\": \"";
  json_escape(out, obs::build_version());
  out << "\",\n    \"git_sha\": \"";
  json_escape(out, obs::build_git_sha());
  char started[32];
  std::snprintf(started, sizeof started, "%.3f",
                obs::process_start_unix_seconds());
  out << "\",\n    \"started_unix_seconds\": " << started << "\n  },\n"
      << "  \"cases\": [\n";
  char buf[64];
  for (std::size_t i = 0; i < results_.size(); ++i) {
    const CaseResult& r = results_[i];
    out << "    {\"name\": \"";
    json_escape(out, r.name);
    out << "\", \"items\": ";
    std::snprintf(buf, sizeof buf, "%.0f", r.items);
    out << buf << ", \"reps\": " << r.reps << ", \"median_ns\": ";
    std::snprintf(buf, sizeof buf, "%.1f", r.median_ns);
    out << buf << ", \"p95_ns\": ";
    std::snprintf(buf, sizeof buf, "%.1f", r.p95_ns);
    out << buf << ", \"min_ns\": ";
    std::snprintf(buf, sizeof buf, "%.1f", r.min_ns);
    out << buf;
    if (!r.counters.empty()) {
      // Older bench_diff builds skip this object (unknown-field rule).
      out << ", \"counters\": {";
      for (std::size_t k = 0; k < r.counters.size(); ++k) {
        out << "\"";
        json_escape(out, r.counters[k].first);
        out << "\": " << r.counters[k].second
            << (k + 1 < r.counters.size() ? ", " : "");
      }
      out << "}";
    }
    out << "}" << (i + 1 < results_.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

// ---- Minimal JSON reader ---------------------------------------------------
//
// Parses exactly the subset write_json() emits (objects, arrays, strings,
// numbers, booleans) — enough for bench_diff without a JSON dependency.

namespace {

struct Parser {
  const char* p;
  const char* end;
  bool ok = true;

  void skip_ws() {
    while (p < end && std::isspace(static_cast<unsigned char>(*p))) ++p;
  }
  bool consume(char c) {
    skip_ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    ok = false;
    return false;
  }
  bool peek(char c) {
    skip_ws();
    return p < end && *p == c;
  }

  std::string parse_string() {
    std::string s;
    if (!consume('"')) return s;
    while (p < end && *p != '"') {
      if (*p == '\\' && p + 1 < end) ++p;
      s.push_back(*p++);
    }
    if (p < end) ++p;
    else ok = false;
    return s;
  }

  double parse_number() {
    skip_ws();
    char* after = nullptr;
    double v = std::strtod(p, &after);
    if (after == p) ok = false;
    p = after;
    return v;
  }

  bool parse_bool() {
    skip_ws();
    if (end - p >= 4 && std::strncmp(p, "true", 4) == 0) {
      p += 4;
      return true;
    }
    if (end - p >= 5 && std::strncmp(p, "false", 5) == 0) {
      p += 5;
      return false;
    }
    ok = false;
    return false;
  }

  // Skip any value (used for fields bench_diff does not care about).
  void skip_value() {
    skip_ws();
    if (p >= end) {
      ok = false;
      return;
    }
    if (*p == '"') {
      parse_string();
    } else if (*p == '{') {
      ++p;
      if (peek('}')) {
        ++p;
        return;
      }
      do {
        parse_string();
        consume(':');
        skip_value();
      } while (ok && consume(','));
      ok = ok && (p <= end);
      consume('}');
      ok = true;  // consume(',') fails once at the end of every object
    } else if (*p == '[') {
      ++p;
      if (peek(']')) {
        ++p;
        return;
      }
      do skip_value();
      while (consume(','));
      ok = true;
      consume(']');
    } else {
      // number / true / false / null
      while (p < end && *p != ',' && *p != '}' && *p != ']' &&
             !std::isspace(static_cast<unsigned char>(*p)))
        ++p;
    }
  }
};

}  // namespace

std::optional<BenchFile> read_bench_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  std::string text = ss.str();

  Parser ps{text.data(), text.data() + text.size()};
  BenchFile out;
  if (!ps.consume('{')) return std::nullopt;
  bool first = true;
  while (ps.ok && (first ? !ps.peek('}') : ps.consume(','))) {
    first = false;
    std::string key = ps.parse_string();
    if (!ps.consume(':')) break;
    if (key == "suite") {
      out.suite = ps.parse_string();
    } else if (key == "sanitized") {
      out.sanitized = ps.parse_bool();
    } else if (key == "cases") {
      if (!ps.consume('[')) break;
      while (ps.ok && !ps.peek(']')) {
        if (!ps.consume('{')) break;
        CaseResult c;
        bool cfirst = true;
        while (ps.ok && (cfirst ? !ps.peek('}') : ps.consume(','))) {
          cfirst = false;
          std::string f = ps.parse_string();
          if (!ps.consume(':')) break;
          if (f == "name") c.name = ps.parse_string();
          else if (f == "items") c.items = ps.parse_number();
          else if (f == "reps") c.reps = static_cast<int>(ps.parse_number());
          else if (f == "median_ns") c.median_ns = ps.parse_number();
          else if (f == "p95_ns") c.p95_ns = ps.parse_number();
          else if (f == "min_ns") c.min_ns = ps.parse_number();
          else if (f == "counters") {
            if (ps.consume('{')) {
              if (!ps.peek('}')) {
                do {
                  std::string cname = ps.parse_string();
                  if (!ps.consume(':')) break;
                  c.counters.emplace_back(
                      cname, static_cast<std::uint64_t>(ps.parse_number()));
                } while (ps.ok && ps.consume(','));
                ps.ok = true;  // the comma probe fails once at '}'
              }
              ps.consume('}');
            }
          }
          else ps.skip_value();
        }
        ps.ok = true;  // the comma probe legitimately fails on '}'
        if (!ps.consume('}')) break;
        out.cases.push_back(std::move(c));
        if (!ps.peek(']')) ps.consume(',');
      }
      ps.consume(']');
    } else {
      ps.skip_value();
    }
  }
  ps.ok = true;
  if (!ps.consume('}')) {
    std::fprintf(stderr, "%s: malformed bench JSON\n", path.c_str());
    return std::nullopt;
  }
  return out;
}

}  // namespace tgp::bench
