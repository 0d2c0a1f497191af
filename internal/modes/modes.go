// Package modes defines the public VoD architecture selector shared by
// pkg/simulate and pkg/paper, and its single canonical mapping onto the
// simulation engine. pkg/simulate aliases the Mode type into the public
// API; the Engine mapping stays internal so engine types never leak.
package modes

import (
	"fmt"

	"cloudmedia/internal/sim"
)

// Mode selects the VoD architecture under test (Sec. III-B).
type Mode int

const (
	// ClientServer serves every chunk straight from dynamically rented
	// cloud capacity, with no peer assistance.
	ClientServer Mode = iota + 1
	// P2P runs the mesh-pull overlay with only the bootstrap (t=0) cloud
	// rental held for the whole run — the static-provisioning baseline the
	// paper's dynamic scheme improves on.
	P2P
	// CloudAssisted is the paper's CloudMedia: the P2P overlay plus the
	// dynamic provisioning controller renting cloud capacity every
	// interval to cover the peer-supply shortfall.
	CloudAssisted
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ClientServer:
		return "client-server"
	case P2P:
		return "p2p"
	case CloudAssisted:
		return "cloud-assisted"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Parse converts a command-line spelling into a Mode. It accepts
// "client-server" (or "cs"), "p2p", and "cloud-assisted" (or
// "cloudmedia").
func Parse(s string) (Mode, error) {
	switch s {
	case "client-server", "cs":
		return ClientServer, nil
	case "p2p":
		return P2P, nil
	case "cloud-assisted", "cloudmedia":
		return CloudAssisted, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want client-server, p2p, or cloud-assisted)", s)
	}
}

// Fidelity selects the simulation engine behind a scenario: the
// per-viewer discrete-event engine or the aggregate fluid-cohort engine.
// The zero value means FidelityEvent, so existing scenarios are
// unaffected.
type Fidelity int

const (
	// FidelityEvent is the per-viewer discrete-event engine
	// (internal/sim): every viewer is an object, memory and event count
	// grow with the crowd. The default, and the reference for accuracy.
	FidelityEvent Fidelity = iota + 1
	// FidelityFluid is the aggregate cohort engine (internal/fluid):
	// O(channels × chunks) state independent of crowd size, so
	// million-viewer scenarios run in seconds. See DESIGN.md "Engine
	// fidelities" for what the model drops.
	FidelityFluid
)

// String implements fmt.Stringer.
func (f Fidelity) String() string {
	switch f {
	case FidelityEvent:
		return "event"
	case FidelityFluid:
		return "fluid"
	default:
		return fmt.Sprintf("Fidelity(%d)", int(f))
	}
}

// ParseFidelity converts a command-line spelling into a Fidelity. It
// accepts "event" (or "discrete") and "fluid" (or "cohort").
func ParseFidelity(s string) (Fidelity, error) {
	switch s {
	case "event", "discrete":
		return FidelityEvent, nil
	case "fluid", "cohort":
		return FidelityFluid, nil
	default:
		return 0, fmt.Errorf("unknown fidelity %q (want event or fluid)", s)
	}
}

// Dynamic returns the mode a run that always provisions dynamically
// uses for m: the static P2P baseline becomes CloudAssisted, the P2P
// overlay under the periodic controller; other modes are unchanged.
func Dynamic(m Mode) Mode {
	if m == P2P {
		return CloudAssisted
	}
	return m
}

// Engine maps the public mode onto the internal simulator mode and whether
// the bootstrap rental is held statically (true = no periodic provisioning
// rounds after t=0).
func Engine(m Mode) (sim.Mode, bool, error) {
	switch m {
	case ClientServer:
		return sim.ClientServer, false, nil
	case P2P:
		return sim.P2P, true, nil
	case CloudAssisted:
		return sim.P2P, false, nil
	default:
		return 0, false, fmt.Errorf("invalid mode %d", int(m))
	}
}
