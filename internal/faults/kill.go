package faults

import "errors"

// ErrKilled reports a simulated crash at a chaos kill point. Chaos tests
// match it with errors.Is; the lambdatune CLI exits with its own code on it.
var ErrKilled = errors.New("faults: killed at kill point")

// Killer simulates process death at checkpoint boundaries — the chaos
// harness's crash injector. It hooks into the checkpoint store's after-save
// callback, so a kill always lands after the checkpoint bytes are durable:
// exactly the state a real crash leaves behind. The zero value never kills.
type Killer struct {
	// AfterRound kills at the checkpoint that closes selector round N
	// (> 0 enables).
	AfterRound int
	// AfterSaves kills at the Nth durable save regardless of its content
	// (> 0 enables) — this is how the chaos harness sweeps every boundary
	// without knowing the round structure in advance.
	AfterSaves int

	saves int
}

// AfterCheckpoint observes one durable checkpoint and returns ErrKilled when
// it is a configured kill point. round is the selector round the checkpoint
// closed (0 = the post-sampling checkpoint).
func (k *Killer) AfterCheckpoint(round int) error {
	k.saves++
	if (k.AfterRound > 0 && round == k.AfterRound) ||
		(k.AfterSaves > 0 && k.saves == k.AfterSaves) {
		return ErrKilled
	}
	return nil
}

// Armed reports whether any kill point is configured.
func (k *Killer) Armed() bool { return k.AfterRound > 0 || k.AfterSaves > 0 }
