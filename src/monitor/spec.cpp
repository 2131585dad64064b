#include "monitor/spec.hpp"

#include <algorithm>
#include <cstdio>

namespace swmon {
namespace {

std::string TermToString(const Term& t, const Property& p) {
  if (t.kind == Term::Kind::kConst) return std::to_string(t.constant);
  if (t.var < p.vars.size()) return "$" + p.vars[t.var];
  return "$?" + std::to_string(t.var);
}

std::string ConditionToString(const Condition& c, const Property& p) {
  std::string out = FieldName(c.field);
  out += c.op == CmpOp::kEq ? "==" : "!=";
  out += TermToString(c.rhs, p);
  return out;
}

std::string PatternToString(const Pattern& pat, const Property& p) {
  std::string out;
  if (pat.event_type)
    out += std::string(DataplaneEventTypeName(*pat.event_type)) + " ";
  out += "[";
  for (std::size_t i = 0; i < pat.conditions.size(); ++i) {
    if (i) out += " && ";
    out += ConditionToString(pat.conditions[i], p);
  }
  if (!pat.forbidden.empty()) {
    out += " && !(";
    for (std::size_t i = 0; i < pat.forbidden.size(); ++i) {
      if (i) out += " && ";
      out += ConditionToString(pat.forbidden[i], p);
    }
    out += ")";
  }
  out += "]";
  return out;
}

std::string CheckPattern(const Pattern& pat, const Property& p,
                         const char* where) {
  auto check_conds = [&](const std::vector<Condition>& conds) -> std::string {
    for (const auto& c : conds) {
      if (c.field >= FieldId::kNumFields) return std::string(where) + ": bad field";
      if (c.rhs.kind == Term::Kind::kVar && c.rhs.var >= p.vars.size())
        return std::string(where) + ": condition references unknown var";
    }
    return "";
  };
  if (auto e = check_conds(pat.conditions); !e.empty()) return e;
  return check_conds(pat.forbidden);
}

}  // namespace

const char* InstanceIdModeName(InstanceIdMode mode) {
  switch (mode) {
    case InstanceIdMode::kExact: return "exact";
    case InstanceIdMode::kSymmetric: return "symmetric";
    case InstanceIdMode::kWandering: return "wandering";
  }
  return "?";
}

std::string Property::Validate() const {
  if (name.empty()) return "property has no name";
  if (stages.empty()) return "property has no stages";
  if (stages[0].kind != StageKind::kEvent)
    return "stage 0 must be an event observation";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const Stage& s = stages[i];
    const std::string where = "stage " + std::to_string(i);
    if (s.kind == StageKind::kTimeout) {
      if (i == 0) return where + ": timeout stage cannot be first";
      const Stage& prev = stages[i - 1];
      if (prev.window == Duration::Zero() && !prev.window_from_field)
        return where + ": timeout stage requires a window on the previous stage";
      if (!s.pattern.conditions.empty() || !s.pattern.forbidden.empty())
        return where + ": timeout stages cannot carry event conditions";
    }
    if (auto e = CheckPattern(s.pattern, *this, where.c_str()); !e.empty())
      return e;
    for (const auto& a : s.aborts) {
      if (auto e = CheckPattern(a, *this, (where + " abort").c_str()); !e.empty())
        return e;
    }
    for (const auto& b : s.bindings) {
      if (b.var >= vars.size()) return where + ": binding to unknown var";
      if (b.kind != Binding::Kind::kField && b.modulus == 0)
        return where + ": builtin binding needs nonzero modulus";
    }
    if (s.refresh_window_on_rematch && i != 0)
      return where + ": refresh_window_on_rematch is stage-0 only";
    if (s.min_count < 1) return where + ": min_count must be >= 1";
    if (s.min_count > 1 && (i == 0 || s.kind == StageKind::kTimeout))
      return where + ": counted stages must be non-initial event stages";
  }
  if (!suppressors.empty() && suppression_key_fields.empty())
    return "suppressors require suppression_key_fields";
  for (const auto& sup : suppressors) {
    if (auto e = CheckPattern(sup.pattern, *this, "suppressor"); !e.empty())
      return e;
    if (sup.key_fields.size() != suppression_key_fields.size())
      return "suppressor key width differs from stage-0 suppression key";
  }
  return "";
}

bool IsIndexableEq(const Condition& c) {
  return c.op == CmpOp::kEq && c.rhs.kind == Term::Kind::kVar &&
         c.mask == ~std::uint64_t{0} && !c.allow_absent;
}

std::uint64_t RequiredFieldMask(const Pattern& p) {
  std::uint64_t need = 0;
  for (const Condition& c : p.conditions)
    if (!c.allow_absent)
      need |= std::uint64_t{1} << static_cast<unsigned>(c.field);
  return need;
}

StageIndexPlan PlanStageIndex(const Property& p, std::size_t k) {
  const Stage& st = p.stages[k];
  // The field of the first indexable equality pinning `var`, if any.
  const auto pin = [](const Pattern& pat, VarId var) -> std::optional<FieldId> {
    for (const Condition& c : pat.conditions)
      if (IsIndexableEq(c) && c.rhs.var == var) return c.field;
    return std::nullopt;
  };

  StageIndexPlan plan;
  if (st.kind == StageKind::kEvent) {
    for (const Condition& c : st.pattern.conditions)
      if (IsIndexableEq(c)) plan.link.emplace_back(c.field, c.rhs.var);
  } else if (!st.aborts.empty()) {
    for (const Condition& c : st.aborts[0].conditions) {
      if (!IsIndexableEq(c)) continue;
      const bool pinned_by_all = std::all_of(
          st.aborts.begin(), st.aborts.end(),
          [&](const Pattern& a) { return pin(a, c.rhs.var).has_value(); });
      if (pinned_by_all) plan.link.emplace_back(c.field, c.rhs.var);
    }
  }

  plan.abort_probes.resize(st.aborts.size());
  if (plan.link.empty()) return plan;
  for (std::size_t i = 0; i < st.aborts.size(); ++i) {
    std::vector<FieldId> probe;
    for (const auto& [field, var] : plan.link) {
      const std::optional<FieldId> f = pin(st.aborts[i], var);
      if (!f) break;
      probe.push_back(*f);
    }
    if (probe.size() == plan.link.size())
      plan.abort_probes[i] = std::move(probe);
  }
  return plan;
}

std::string Property::ToString() const {
  std::string out = "property " + name + " (" +
                    InstanceIdModeName(id_mode) + ")\n";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const Stage& s = stages[i];
    char head[64];
    std::snprintf(head, sizeof(head), "  (%zu) %s: ", i + 1,
                  s.label.empty() ? "obs" : s.label.c_str());
    out += head;
    if (s.kind == StageKind::kTimeout) {
      out += "TIMEOUT";
    } else {
      out += PatternToString(s.pattern, *this);
    }
    for (const auto& b : s.bindings) {
      out += " bind $" + vars[b.var];
      switch (b.kind) {
        case Binding::Kind::kField:
          out += "=" + std::string(FieldName(b.field));
          break;
        case Binding::Kind::kHashPort: out += "=hash_port"; break;
        case Binding::Kind::kRoundRobin: out += "=round_robin"; break;
      }
    }
    if (s.min_count > 1) out += " x" + std::to_string(s.min_count);
    if (s.window > Duration::Zero())
      out += " window=" + s.window.ToString();
    if (s.window_from_field)
      out += " window_from=" + std::string(FieldName(*s.window_from_field));
    for (const auto& a : s.aborts)
      out += "\n        unless " + PatternToString(a, *this);
    out += "\n";
  }
  return out;
}

}  // namespace swmon
