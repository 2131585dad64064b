// Property specifications: the monitor's input language.
//
// A property describes a *violation pattern*: an ordered sequence of
// observation stages that, when completed, witness incorrect behaviour
// (Sec 2: "a sequence of observations that, when completed, witness a
// violation"). The model is distilled from the paper's ten features:
//
//   * Stages match dataplane events (arrival / egress incl. drops /
//     out-of-band link status) via conjunctions of field conditions
//     (Feature 1), may compare against values bound by earlier stages
//     (Feature 2: event history), with equality or inequality (Feature 6:
//     negative match) and tuple-inequality via a `forbidden` group (the NAT
//     property's "destination not equal to A,P").
//   * Completing a stage can bind event fields — or engine builtins like a
//     hash or round-robin expectation — into the instance environment.
//   * A stage may carry a timeout window bounding how long the instance may
//     wait for the *next* stage (Feature 3); windows can be refreshed on
//     re-match (stateful-firewall semantics) or deliberately not
//     (Sec 2.3's ARP subtlety), and can derive their length from a bound
//     field (a DHCP lease time).
//   * A stage may itself be a timeout observation (Feature 7): it matches
//     when the previous stage's window elapses, not when a packet arrives.
//   * While an instance waits for a stage, `abort` patterns describe events
//     that discharge the obligation and kill the instance (Feature 4:
//     "until the connection is closed").
//   * Properties may declare suppressors: once a suppressor pattern is seen
//     for a key, stage-0 matches with that key no longer create instances
//     ("no direct reply if neither pre-loaded nor prior reply seen").
//
// Instance identification variety (Feature 8) — exact, symmetric,
// wandering, multiple — is declared for reporting (Table 1) and derivable
// from stage structure (monitor/features.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/sim_time.hpp"
#include "dataplane/switch.hpp"
#include "packet/field.hpp"

namespace swmon {

using VarId = std::uint16_t;

enum class CmpOp : std::uint8_t { kEq, kNe };

/// Right-hand side of a condition: a literal or a bound variable.
struct Term {
  enum class Kind : std::uint8_t { kConst, kVar } kind = Kind::kConst;
  std::uint64_t constant = 0;
  VarId var = 0;

  static Term Const(std::uint64_t v) { return Term{Kind::kConst, v, 0}; }
  static Term Var(VarId v) { return Term{Kind::kVar, 0, v}; }

  bool operator==(const Term&) const = default;
};

struct Condition {
  FieldId field;
  CmpOp op = CmpOp::kEq;
  Term rhs;
  /// TCAM-style mask applied to both sides before comparison. The default
  /// (all ones) is an exact match. Port-knocking uses a masked match to
  /// describe the knock-port region ("any guess") plus an exact Ne for
  /// "not the expected knock".
  std::uint64_t mask = ~std::uint64_t{0};
  /// Result when the event lacks the field entirely. Default false (a
  /// condition on an absent field never holds). Setting it true expresses
  /// e.g. "not a TCP close — or not TCP at all" on a stage that must also
  /// admit non-TCP packets.
  bool allow_absent = false;

  bool operator==(const Condition&) const = default;
};

/// A conjunctive event pattern. `conditions` must all hold; if `forbidden`
/// is non-empty, the pattern additionally requires that NOT all of its
/// conditions hold (tuple-level negative match).
struct Pattern {
  std::optional<DataplaneEventType> event_type;
  std::vector<Condition> conditions;
  std::vector<Condition> forbidden;

  bool operator==(const Pattern&) const = default;
};

/// Capture into the instance environment when a stage completes.
struct Binding {
  enum class Kind : std::uint8_t {
    kField,       // copy an event field
    kHashPort,    // FNV hash of `hash_inputs` event fields, mod `modulus`, +1
    kRoundRobin,  // engine's per-property round-robin counter, mod `modulus`, +1
  };
  VarId var = 0;
  Kind kind = Kind::kField;
  FieldId field = FieldId::kInPort;       // kField
  std::vector<FieldId> hash_inputs;       // kHashPort
  std::uint32_t modulus = 1;              // kHashPort / kRoundRobin
  std::uint32_t base = 1;                 // kHashPort / kRoundRobin offset

  bool operator==(const Binding&) const = default;
};

enum class StageKind : std::uint8_t {
  kEvent,    // matches a dataplane event
  kTimeout,  // matches the expiry of the previous stage's window (Feature 7)
};

struct Stage {
  std::string label;
  StageKind kind = StageKind::kEvent;

  /// For kEvent stages. Conditions may reference variables bound by earlier
  /// stages; evaluation requires those variables to be bound.
  Pattern pattern;

  /// Environment captures applied when this stage completes.
  std::vector<Binding> bindings;

  /// Events that kill an instance *waiting for this stage* (Feature 4).
  std::vector<Pattern> aborts;

  /// Time the instance may wait for the NEXT stage after this one
  /// completes. Zero = unbounded. If the next stage is kEvent, expiry kills
  /// the instance (Feature 3); if the next stage is kTimeout, expiry *is*
  /// that observation (Feature 7).
  Duration window = Duration::Zero();

  /// When set, the window length is `bound value of this field` seconds
  /// captured at this stage (e.g. a DHCP lease time), overriding `window`.
  std::optional<FieldId> window_from_field;

  /// Stage-0 only: when a stage-0 event re-matches an existing instance's
  /// key, re-arm its window instead of ignoring the event (the stateful
  /// firewall resets its per-(A,B) timer on every A->B packet; the ARP
  /// proxy deliberately must NOT reset — Sec 2.3).
  bool refresh_window_on_rematch = false;

  /// EXTENSION beyond the paper's boolean scope (Sec 4): the stage must
  /// match this many events before the instance advances — quantitative
  /// observations like "K SYNs from H within T". Applies to non-initial
  /// event stages; 1 (the default) is the paper's semantics.
  std::uint32_t min_count = 1;

  bool operator==(const Stage&) const = default;
};

/// Table 1's "Inst. ID" column.
enum class InstanceIdMode : std::uint8_t {
  kExact,      // later stages match the same fields stage 0 bound
  kSymmetric,  // later stages match reversed/related fields (5-tuple flip)
  kWandering,  // stages bind and match across different protocols
};

const char* InstanceIdModeName(InstanceIdMode mode);

/// Keyed suppression of instance creation (negated-history preconditions).
struct Suppressor {
  Pattern pattern;
  /// Event fields forming the suppression key when `pattern` matches.
  std::vector<FieldId> key_fields;

  bool operator==(const Suppressor&) const = default;
};

struct Property {
  std::string name;
  std::string description;

  /// Variable names; VarId indexes this vector.
  std::vector<std::string> vars;

  std::vector<Stage> stages;

  InstanceIdMode id_mode = InstanceIdMode::kExact;

  std::vector<Suppressor> suppressors;
  /// Stage-0 event fields forming the key checked against suppressions.
  std::vector<FieldId> suppression_key_fields;

  std::size_t num_vars() const { return vars.size(); }
  std::size_t num_stages() const { return stages.size(); }

  /// Structural sanity checks (stage count, var references in range,
  /// timeout stages preceded by a window, ...). Returns an error message or
  /// empty string when valid.
  std::string Validate() const;

  std::string ToString() const;

  bool operator==(const Property&) const = default;
};

/// The one condition shape a hash lookup can serve: a full-width
/// `field == $var` without allow_absent. Whenever it holds, the event's
/// field value equals the variable, so projecting the field finds the
/// instance by key. (An allow_absent condition also holds on events that
/// lack the field, which a keyed lookup would never reach.)
bool IsIndexableEq(const Condition& c);

/// Presence mask (bit i = FieldId i) of the fields a pattern's required,
/// non-allow_absent conditions read: an event lacking any of them fails the
/// pattern under every environment. Forbidden-group fields are excluded (an
/// absent field there makes the group not hold, which lets the pattern
/// match).
std::uint64_t RequiredFieldMask(const Pattern& p);

/// How a later stage's instances are filed and found; both engines build
/// their keyed stores from this.
struct StageIndexPlan {
  /// The link key, as (event field, variable) pairs in key order. Instances
  /// with every link variable bound are hashed under those values; the rest
  /// (and every instance when `link` is empty) wait in a scan list. An event
  /// stage links its pattern's indexable equalities, and the advance pass
  /// projects their fields. A timeout stage has no pattern: it links the
  /// variables every one of its aborts pins, with the first abort's fields.
  std::vector<std::pair<FieldId, VarId>> link;
  /// Parallel to Stage::aborts: the event fields that project the link key,
  /// in link order, when the abort pins every link variable with an
  /// indexable equality — its victims then all sit in that one bucket.
  /// Empty when the abort leaves a link variable free (or `link` is empty);
  /// such an abort must walk the whole stage.
  std::vector<std::vector<FieldId>> abort_probes;
};

/// Plans stage `k` (>= 1) of a validated property.
StageIndexPlan PlanStageIndex(const Property& p, std::size_t k);

}  // namespace swmon
