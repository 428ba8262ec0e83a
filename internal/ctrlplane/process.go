package ctrlplane

import (
	"errors"
	"fmt"

	"mind/internal/mem"
)

// ErrNoProcess is returned for operations on unknown PIDs (ESRCH).
var ErrNoProcess = errors.New("ctrlplane: no such process (ESRCH)")

// Process is the control plane's internal representation of a user
// process (the analogue of Linux's task_struct kept at the switch CPU,
// §6.1/§6.3). Threads of one process may run on different compute blades
// while transparently sharing the address space: they share the PID,
// which doubles as the protection domain ID.
type Process struct {
	PID  mem.PDID
	Name string
}

// ProcessManager tracks processes and admits their threads onto compute
// blades. MIND does not innovate on scheduling (§6.1): the caller picks
// each thread's blade, as the experiments pin threads per blade (§7.1).
type ProcessManager struct {
	computeBlades int
	procs         map[mem.PDID]*Process
	nextPID       mem.PDID
}

// NewProcessManager creates a manager for a rack with the given number of
// compute blades.
func NewProcessManager(computeBlades int) *ProcessManager {
	return &ProcessManager{
		computeBlades: computeBlades,
		procs:         make(map[mem.PDID]*Process),
		nextPID:       1, // PDID 0 is the TCAM wildcard; never a real PID
	}
}

// Exec creates a process (the exec intercept, §6.1) and returns it.
func (m *ProcessManager) Exec(name string) *Process {
	p := &Process{PID: m.nextPID, Name: name}
	m.nextPID++
	m.procs[p.PID] = p
	return p
}

// Exit removes a process (the exit intercept).
func (m *ProcessManager) Exit(pid mem.PDID) error {
	if _, ok := m.procs[pid]; !ok {
		return ErrNoProcess
	}
	delete(m.procs, pid)
	return nil
}

// Lookup returns the process with the given PID.
func (m *ProcessManager) Lookup(pid mem.PDID) (*Process, error) {
	p, ok := m.procs[pid]
	if !ok {
		return nil, ErrNoProcess
	}
	return p, nil
}

// SpawnThreadOn admits a thread of pid on the given compute blade (the
// clone intercept, §6.1). Threads on different blades keep the same PID,
// sharing the address space via the protection and translation rules at
// the switch.
func (m *ProcessManager) SpawnThreadOn(pid mem.PDID, blade int) error {
	if _, ok := m.procs[pid]; !ok {
		return ErrNoProcess
	}
	if blade < 0 || blade >= m.computeBlades {
		return fmt.Errorf("ctrlplane: no compute blade %d", blade)
	}
	return nil
}

// Processes returns the number of live processes.
func (m *ProcessManager) Processes() int { return len(m.procs) }
