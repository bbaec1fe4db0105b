// Package lockrank places every struct mutex of the hubs, the registry,
// the relay and the core sender and receiver in one acquisition order,
// after the Go runtime's own lock ranking (runtime/lockrank.go).
//
// Mutex and RWMutex embed their sync types. Each owner calls Init with
// its lock's rank when it builds the struct. In the default build Init is
// empty and Lock, Unlock, RLock and RUnlock are sync's own, so every hot
// path compiles to the same calls as with a plain sync.Mutex. Built with
// `-tags lockrank`, each acquisition looks up the locks the calling
// goroutine already holds and panics, with both acquisition stacks, when
// it would take a lock of lower rank than one held (an inversion), a
// second lock of a rank held (a same-rank nesting, a self-deadlock when
// the lock is the same one), or a lock that was never Init'ed. The check
// parses the goroutine id from runtime.Stack, which costs microseconds
// per acquisition, so it is for tests only:
//
//	go test -tags lockrank ./internal/hub ./internal/relay ./internal/registry ./internal/chaos ./internal/core
//
// The order covers every edge a test executes, however many calls lie
// between the two acquisitions.
package lockrank

// Rank is a lock's place in the acquisition order: a goroutine holding a
// lock of rank r may only acquire locks of rank greater than r.
type Rank int

// The ranks, outermost first. Locks whose owners never nest them
// (Registry and Relay, the relay's two locks, a core Session and the hub)
// may take either order between them; the order only has to be one
// every executed nesting agrees with.
const (
	unranked   Rank = iota // the zero value: a lock that was never Init'ed
	Registry               // registry.Registry.mu
	Relay                  // relay.Relay.mu
	Forwarder              // relay.forwarder.mu
	Hub                    // hub.Hub.mu: admission and drain
	Governor               // hub.Hub.govMu: the publish cycle and the byte budget
	Shard                  // hub.shard.mu
	Ring                   // hub.ring.mu
	Pool                   // hub.bufPool.mu
	Session                // core.Session.mu
	Receiver               // core.Receiver.mu
	PathReader             // core.PathReader.mu: a leaf, never held across a consumer hook
	Acceptor               // hub.Acceptor.mu: a leaf, never held across an owner hook
)

var names = [...]string{
	unranked:   "unranked",
	Registry:   "registry.Registry.mu",
	Relay:      "relay.Relay.mu",
	Forwarder:  "relay.forwarder.mu",
	Hub:        "hub.Hub.mu",
	Governor:   "hub.Hub.govMu",
	Shard:      "hub.shard.mu",
	Ring:       "hub.ring.mu",
	Pool:       "hub.bufPool.mu",
	Session:    "core.Session.mu",
	Receiver:   "core.Receiver.mu",
	PathReader: "core.PathReader.mu",
	Acceptor:   "hub.Acceptor.mu",
}

func (r Rank) String() string {
	if r >= 0 && int(r) < len(names) {
		return names[r]
	}
	return "rank(?)"
}
