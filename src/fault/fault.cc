#include "fault/fault.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "obs/obs.h"
#ifndef TREEQ_OBS_DISABLED
#include "obs/stats.h"
#endif

namespace treeq {
namespace fault {

namespace {

thread_local const char* t_thread_tag = "";

inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t HashPoint(std::string_view point) {
  uint64_t h = 14695981039346656037ull;
  for (char c : point) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Deterministic Bernoulli draw for the Nth hit of `point` under `seed`:
/// independent of thread interleaving, identical on replay.
bool DeterministicBernoulli(uint64_t seed, std::string_view point,
                            uint64_t hit, double p) {
  if (p >= 1.0) return true;
  if (p <= 0.0) return false;
  const uint64_t h = Mix(seed ^ Mix(HashPoint(point) ^ hit * Mix(hit)));
  return static_cast<double>(h >> 11) * 0x1.0p-53 < p;
}

/// The serialized code names (round-tripped by ToString/Parse). Kept
/// lowercase-stable rather than reusing StatusCodeName so a replay line
/// survives future display-name changes.
struct CodeName {
  StatusCode code;
  const char* name;
};
constexpr CodeName kCodeNames[] = {
    {StatusCode::kUnavailable, "Unavailable"},
    {StatusCode::kDeadlineExceeded, "DeadlineExceeded"},
    {StatusCode::kResourceExhausted, "ResourceExhausted"},
    {StatusCode::kCancelled, "Cancelled"},
    {StatusCode::kInternal, "Internal"},
    {StatusCode::kInvalidArgument, "InvalidArgument"},
    {StatusCode::kNotFound, "NotFound"},
};

const char* CodeToName(StatusCode code) {
  for (const CodeName& c : kCodeNames) {
    if (c.code == code) return c.name;
  }
  return "Unavailable";
}

bool NameToCode(std::string_view name, StatusCode* out) {
  for (const CodeName& c : kCodeNames) {
    if (name == c.name) {
      *out = c.code;
      return true;
    }
  }
  return false;
}

}  // namespace

const std::vector<std::string>& KnownPoints() {
  // One entry per TREEQ_FAULT_* site in the engine. Keep sorted by module;
  // tests/fault_storm_test.cc asserts every entry is firable.
  static const std::vector<std::string>* const kPoints =
      new std::vector<std::string>{
          "cache.eval.insert",       "cache.eval.lookup",
          "cache.flight.join",       "cache.result.insert",
          "cache.result.invalidate", "cache.result.lookup",
          "engine.queue.pop",        "engine.queue.push",
          "engine.shutdown",         "engine.worker.run",
          "exec.budget.charge",      "exec.deadline.check",
          "plan.route.decide",       "store.evict.notify",
      };
  return *kPoints;
}

void SetThreadTag(const char* tag) {
  t_thread_tag = tag != nullptr ? tag : "";
}

FaultRegistry& FaultRegistry::Global() {
  static FaultRegistry* const kRegistry = new FaultRegistry();
  return *kRegistry;
}

void FaultRegistry::Arm(FaultPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_ = std::move(plan);
  rules_.clear();
  points_.clear();
  total_fires_.store(0, std::memory_order_relaxed);
  for (const FaultRule& rule : plan_.rules) {
    rules_.push_back(std::make_unique<RuleState>(RuleState{rule, 0}));
    points_[rule.point].rules.push_back(rules_.back().get());
  }
  TREEQ_OBS_INC("fault.registry.armed");
  armed_.store(true, std::memory_order_relaxed);
}

void FaultRegistry::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.store(false, std::memory_order_relaxed);
  plan_ = FaultPlan();
  // Keep rules_/points_ so hits()/fires() stay inspectable after a storm.
}

Status FaultRegistry::Hit(const char* point) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!armed_.load(std::memory_order_relaxed)) return Status::OK();
  auto it = points_.find(std::string_view(point));
  if (it == points_.end()) it = points_.emplace(point, PointState()).first;
  PointState& state = it->second;
  const uint64_t hit = ++state.hits;
  for (RuleState* rs : state.rules) {
    const FaultRule& rule = rs->rule;
    if (!rule.thread_tag.empty() && rule.thread_tag != t_thread_tag) {
      continue;
    }
    if (hit < rule.first_hit) continue;
    if (rs->fires >= rule.max_fires) continue;
    if (!DeterministicBernoulli(plan_.seed, point, hit, rule.probability)) {
      continue;
    }
    ++rs->fires;
    ++state.fires;
    total_fires_.fetch_add(1, std::memory_order_relaxed);
    TREEQ_OBS_INC("fault.registry.fired");
#ifndef TREEQ_OBS_DISABLED
    // Per-point fired counter, `fault.<point>.fired` per the taxonomy's
    // fault structure rule. Name built once per (plan, point) in practice;
    // the armed path is never hot.
    obs::StatsRegistry::Global()
        .GetCounter("fault." + std::string(point) + ".fired")
        ->Add(1);
#endif
    return Status(rule.code,
                  "injected fault at " + std::string(point));
  }
  return Status::OK();
}

uint64_t FaultRegistry::hits(std::string_view point) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  return it != points_.end() ? it->second.hits : 0;
}

uint64_t FaultRegistry::fires(std::string_view point) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  return it != points_.end() ? it->second.fires : 0;
}

FaultPlan FaultRegistry::plan() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plan_;
}

std::string FaultPlan::ToString() const {
  std::string out = "seed=" + std::to_string(seed);
  for (const FaultRule& rule : rules) {
    char p[32];
    std::snprintf(p, sizeof(p), "%.6g", rule.probability);
    out += " rule point=" + rule.point;
    out += " code=" + std::string(CodeToName(rule.code));
    out += " first=" + std::to_string(rule.first_hit);
    out += " max=" + (rule.max_fires == UINT64_MAX
                          ? std::string("inf")
                          : std::to_string(rule.max_fires));
    out += " p=" + std::string(p);
    out += " tag=" + (rule.thread_tag.empty() ? std::string("any")
                                              : rule.thread_tag);
  }
  return out;
}

Result<FaultPlan> FaultPlan::Parse(std::string_view text) {
  FaultPlan plan;
  FaultRule* current = nullptr;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (start == i) break;
    std::string_view token = text.substr(start, i - start);
    if (token == "rule") {
      plan.rules.emplace_back();
      current = &plan.rules.back();
      continue;
    }
    size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      return Status::ParseError("fault plan: expected key=value, got '" +
                                std::string(token) + "'");
    }
    std::string key(token.substr(0, eq));
    std::string value(token.substr(eq + 1));
    if (key == "seed") {
      plan.seed = std::strtoull(value.c_str(), nullptr, 10);
      continue;
    }
    if (current == nullptr) {
      return Status::ParseError("fault plan: '" + key +
                                "' before any 'rule'");
    }
    if (key == "point") {
      current->point = value;
    } else if (key == "code") {
      if (!NameToCode(value, &current->code)) {
        return Status::ParseError("fault plan: unknown code '" + value +
                                  "'");
      }
    } else if (key == "first") {
      current->first_hit = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "max") {
      current->max_fires = value == "inf"
                               ? UINT64_MAX
                               : std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "p") {
      current->probability = std::strtod(value.c_str(), nullptr);
    } else if (key == "tag") {
      current->thread_tag = value == "any" ? "" : value;
    } else {
      return Status::ParseError("fault plan: unknown key '" + key + "'");
    }
  }
  for (const FaultRule& rule : plan.rules) {
    if (rule.point.empty()) {
      return Status::ParseError("fault plan: rule without point=");
    }
  }
  return plan;
}

}  // namespace fault
}  // namespace treeq
