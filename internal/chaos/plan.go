package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"dmpstream/internal/emunet"
)

// Kind classifies one event of a run's schedule.
type Kind int

const (
	// Join: one churn subscriber joins stream Target directly, reads for
	// Hold, and hangs up abruptly.
	Join Kind = iota
	// Burst: burstSize subscribers join stream Target at once and hang up
	// immediately — the overload shape.
	Burst
	// Breather: nothing happens; invariants are checked on a quiet origin.
	Breather
	// Drop: fault relay Target resets every connection through it (RST).
	Drop
	// Sever: fault relay Target closes every connection through it (FIN).
	Sever
	// Stall: fault relay Target blackholes traffic until its Unstall.
	Stall
	// Unstall lifts fault relay Target's Stall.
	Unstall
	// Kill: relay slot Target (tier-major) dies and restarts on the same
	// address with the same upstream token.
	Kill
	// End: stream Target (the last) ends mid-run; its later joins must be
	// told so while its siblings — the relay tree's stream 0 among them —
	// keep serving.
	End
)

var kindNames = [...]string{"join", "burst", "breather", "drop", "sever", "stall", "unstall", "kill", "end"}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one entry of a run's schedule: at offset At from the schedule
// start, Kind happens to Target.
type Event struct {
	At   time.Duration
	Kind Kind
	// Target is the stream index (Join, Burst), the origin fault relay
	// (Drop, Sever, Stall, Unstall) or the relay slot (Kill).
	Target int
	// Hold is how long a Join reads before hanging up.
	Hold time.Duration
}

// Schedule shape. Churn and faults run at these rates in every topology;
// only which processes run depends on it.
const (
	meanGap     = 120 * time.Millisecond // mean pause between churn events
	faultGap    = 500 * time.Millisecond // mean pause between faults on one fault relay
	stallHold   = 150 * time.Millisecond // mean stall length
	maxKills    = 2                      // relay kill/restart events per run
	killGap     = 750 * time.Millisecond // mean pause between kill draws
	killSpacing = 400 * time.Millisecond // no kill closer than this to the previous one
	// quietTail is the fault- and kill-free end of every schedule: longer
	// than any redial backoff, so every path has healed when the drain
	// judges the population. A drain cannot deliver an end marker to a
	// subscriber whose paths are all down, nor a tail written into a path
	// that died unnoticed after its sibling's end marker went out.
	quietTail = 700 * time.Millisecond
)

// Plan draws the whole schedule of one run from cfg.Seed, sorted by
// offset: churn on the origin streams when there is no relay tree, faults
// on the origin's fault relays always, relay kills when there is a tree,
// and the last stream's mid-run end when there are siblings to outlive it. A
// breather at Duration closes every plan, so the run waits out the quiet
// tail and checks the healed population before the drain. Plan is a pure
// function of cfg — the same Config always yields the same plan.
func Plan(cfg Config) []Event {
	cfg = cfg.withDefaults()
	var evs []Event
	if cfg.Depth == 0 {
		evs = churn(cfg.Seed, cfg.Duration, cfg.Streams)
	}
	for k := 0; k < relaysPerTier; k++ {
		for _, f := range emunet.RandomFaults(cfg.Seed+100+int64(k), cfg.Duration-quietTail, faultGap, stallHold) {
			evs = append(evs, Event{At: f.At, Kind: faultKind(f.Kind), Target: k})
		}
	}
	if cfg.Depth > 0 {
		evs = append(evs, kills(cfg.Seed+200, cfg.Duration, cfg.Depth*relaysPerTier)...)
	}
	if cfg.Streams > 1 {
		evs = append(evs, Event{At: cfg.Duration / 2, Kind: End, Target: cfg.Streams - 1})
	}
	evs = append(evs, Event{At: cfg.Duration, Kind: Breather})
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// churn draws exponentially spaced joins, bursts and breathers across d,
// each against one of streams stream indices.
func churn(seed int64, d time.Duration, streams int) []Event {
	rng := rand.New(rand.NewSource(seed))
	var evs []Event
	for at := time.Duration(0); ; {
		at += min(time.Duration(rng.ExpFloat64()*float64(meanGap)), time.Second)
		if at >= d {
			return evs
		}
		ev := Event{At: at, Target: rng.Intn(streams)}
		switch pick := rng.Intn(10); {
		case pick < 5:
			ev.Kind = Join
			ev.Hold = time.Duration(50+rng.Intn(350)) * time.Millisecond
		case pick < 8:
			ev.Kind = Burst
		default:
			ev.Kind = Breather
		}
		evs = append(evs, ev)
	}
}

// kills draws up to maxKills relay kill/restarts over slots relay slots.
// Eligibility is decided from the planned offsets alone: a kill needs
// quietTail left for its subtree to heal before the drain, and killSpacing
// since the previous kill so two restarts never overlap.
func kills(seed int64, d time.Duration, slots int) []Event {
	rng := rand.New(rand.NewSource(seed))
	var evs []Event
	last := -killSpacing
	for at := time.Duration(0); len(evs) < maxKills; {
		at += time.Duration(rng.ExpFloat64() * float64(killGap))
		if d-at < quietTail {
			break
		}
		if at-last < killSpacing {
			continue
		}
		evs = append(evs, Event{At: at, Kind: Kill, Target: rng.Intn(slots)})
		last = at
	}
	return evs
}

// faultKind maps emunet's fault primitives onto schedule kinds.
func faultKind(k emunet.FaultKind) Kind {
	switch k {
	case emunet.FaultDrop:
		return Drop
	case emunet.FaultSever:
		return Sever
	case emunet.FaultStall:
		return Stall
	case emunet.FaultUnstall:
		return Unstall
	default:
		panic(fmt.Sprintf("chaos: unknown fault kind %v", k))
	}
}
