package blackbox

// Event classifies one instrument into the ring's (kind, code) space.
type Event struct {
	Kind uint16
	Code uint16
}

// Ladder-event codes (KindLadderEv).
const (
	CodeEmergencyEnter uint16 = 1
	CodeReadOnlyEnter  uint16 = 2
	CodeResume         uint16 = 3
)

// Health codes (KindHealth).
const (
	CodeDerivedBudgetPages uint16 = 1
	CodeBudgetMilliJoules  uint16 = 2
	CodeEffectiveMilliJ    uint16 = 3
	CodeHealthEmergency    uint16 = 4
	CodeReadOnlyFall       uint16 = 5
	CodeHealthRecovery     uint16 = 6
	CodeScrubDegrade       uint16 = 7
)

// Sensor codes (KindSensor).
const (
	CodeRejectBounds   uint16 = 1
	CodeRejectRate     uint16 = 2
	CodeRejectStale    uint16 = 3
	CodeRejectDisagree uint16 = 4
	CodeSoloSample     uint16 = 5
	CodeBlindSample    uint16 = 6
	CodeRetrust        uint16 = 7
)

// Serve codes (KindServe).
const (
	CodeShedOverload   uint16 = 1
	CodeShedDeadline   uint16 = 2
	CodeShedReadOnly   uint16 = 3
	CodeStallPredicted uint16 = 4
)

// Cursor codes (KindCursor).
const (
	CodeCursorAdvance  uint16 = 1
	CodeCursorResume   uint16 = 2
	CodeCursorFallback uint16 = 3
)

// Span codes (KindSpan).
const (
	CodeSpanClean uint16 = 1
	CodeSpanFlush uint16 = 2
	CodeSpanServe uint16 = 3
)

// instrumentRules maps the system's load-bearing instruments to ring
// events. Anything not listed is ignored by the tee — the ring records
// decisions, not every sample. The map is consulted on the hot path;
// map reads with string keys do not allocate.
var instrumentRules = map[string]Event{
	// core: the budget contract itself.
	"core_dirty_pages":            {KindDirty, 0},
	"core_dirty_budget_pages":     {KindBudget, 0},
	"core_health_state":           {KindLadder, 0},
	"core_emergency_enters_total": {KindLadderEv, CodeEmergencyEnter},
	"core_readonly_enters_total":  {KindLadderEv, CodeReadOnlyEnter},
	"core_resumes_total":          {KindLadderEv, CodeResume},

	// health: budget re-derivations, fused energy, ladder causes.
	"health_derived_budget_pages":   {KindHealth, CodeDerivedBudgetPages},
	"health_budget_millijoules":     {KindHealth, CodeBudgetMilliJoules},
	"battery_effective_millijoules": {KindHealth, CodeEffectiveMilliJ},
	"health_emergency_enters_total": {KindHealth, CodeHealthEmergency},
	"health_readonly_falls_total":   {KindHealth, CodeReadOnlyFall},
	"health_recoveries_total":       {KindHealth, CodeHealthRecovery},
	"health_scrub_degrades_total":   {KindHealth, CodeScrubDegrade},

	// sensor: fault-episode verdicts and fusion degradations.
	"sensor_rejects_bounds_total":   {KindSensor, CodeRejectBounds},
	"sensor_rejects_rate_total":     {KindSensor, CodeRejectRate},
	"sensor_rejects_stale_total":    {KindSensor, CodeRejectStale},
	"sensor_rejects_disagree_total": {KindSensor, CodeRejectDisagree},
	"sensor_solo_samples_total":     {KindSensor, CodeSoloSample},
	"sensor_blind_samples_total":    {KindSensor, CodeBlindSample},
	"sensor_retrusts_total":         {KindSensor, CodeRetrust},

	// serve: shed and overload decisions.
	"serve_shed_overload_total":   {KindServe, CodeShedOverload},
	"serve_shed_deadline_total":   {KindServe, CodeShedDeadline},
	"serve_shed_readonly_total":   {KindServe, CodeShedReadOnly},
	"serve_stall_predicted_total": {KindServe, CodeStallPredicted},

	// recovery: cursor movement.
	"recovery_cursor_advances_total":  {KindCursor, CodeCursorAdvance},
	"recovery_resumes_total":          {KindCursor, CodeCursorResume},
	"recovery_cursor_fallbacks_total": {KindCursor, CodeCursorFallback},
}

// spanRules maps finished-span names to KindSpan codes: the clean and
// power-fail flush operations whose start/finish bracket the moments
// forensics care about.
var spanRules = map[string]uint16{
	"core.clean":           CodeSpanClean,
	"core.powerfail_flush": CodeSpanFlush,
}

// KindString names a record kind for the dump exposition.
func KindString(kind uint16) string {
	switch kind {
	case KindBoot:
		return "boot"
	case KindRecover:
		return "recover"
	case KindDirty:
		return "dirty"
	case KindBudget:
		return "budget"
	case KindLadder:
		return "ladder"
	case KindLadderEv:
		return "ladder_ev"
	case KindHealth:
		return "health"
	case KindSensor:
		return "sensor"
	case KindServe:
		return "serve"
	case KindCursor:
		return "cursor"
	case KindSpan:
		return "span"
	case KindMark:
		return "mark"
	}
	return "unknown"
}

// CodeString names a record's code within its kind; empty when the kind
// has no code refinement.
func CodeString(kind, code uint16) string {
	switch kind {
	case KindLadder:
		switch code {
		case 0:
			return "healthy"
		case 1:
			return "degraded"
		case 2:
			return "emergency_flush"
		case 3:
			return "read_only"
		}
	case KindLadderEv:
		switch code {
		case CodeEmergencyEnter:
			return "emergency_enter"
		case CodeReadOnlyEnter:
			return "readonly_enter"
		case CodeResume:
			return "resume"
		}
	case KindHealth:
		switch code {
		case CodeDerivedBudgetPages:
			return "derived_budget_pages"
		case CodeBudgetMilliJoules:
			return "budget_millijoules"
		case CodeEffectiveMilliJ:
			return "effective_millijoules"
		case CodeHealthEmergency:
			return "emergency"
		case CodeReadOnlyFall:
			return "readonly_fall"
		case CodeHealthRecovery:
			return "recovery"
		case CodeScrubDegrade:
			return "scrub_degrade"
		}
	case KindSensor:
		switch code {
		case CodeRejectBounds:
			return "reject_bounds"
		case CodeRejectRate:
			return "reject_rate"
		case CodeRejectStale:
			return "reject_stale"
		case CodeRejectDisagree:
			return "reject_disagree"
		case CodeSoloSample:
			return "solo"
		case CodeBlindSample:
			return "blind"
		case CodeRetrust:
			return "retrust"
		}
	case KindServe:
		switch code {
		case CodeShedOverload:
			return "shed_overload"
		case CodeShedDeadline:
			return "shed_deadline"
		case CodeShedReadOnly:
			return "shed_readonly"
		case CodeStallPredicted:
			return "stall_predicted"
		}
	case KindCursor:
		switch code {
		case CodeCursorAdvance:
			return "advance"
		case CodeCursorResume:
			return "resume"
		case CodeCursorFallback:
			return "fallback"
		}
	case KindSpan:
		switch code {
		case CodeSpanClean:
			return "core.clean"
		case CodeSpanFlush:
			return "core.powerfail_flush"
		case CodeSpanServe:
			return "serve.request"
		}
	}
	return ""
}
