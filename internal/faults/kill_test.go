package faults

import (
	"errors"
	"testing"
)

func TestKillerAfterRound(t *testing.T) {
	k := &Killer{AfterRound: 2}
	for _, round := range []int{0, 1} {
		if err := k.AfterCheckpoint(round); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if err := k.AfterCheckpoint(2); !errors.Is(err, ErrKilled) {
		t.Errorf("round 2: %v", err)
	}
}

func TestKillerAfterSaves(t *testing.T) {
	k := &Killer{AfterSaves: 3}
	for i := 0; i < 2; i++ {
		if err := k.AfterCheckpoint(i); err != nil {
			t.Fatalf("save %d: %v", i+1, err)
		}
	}
	if err := k.AfterCheckpoint(7); !errors.Is(err, ErrKilled) {
		t.Errorf("third save: %v", err)
	}
}

func TestKillerZeroValueNeverKills(t *testing.T) {
	k := &Killer{}
	if k.Armed() {
		t.Error("zero killer reports armed")
	}
	for i := 0; i < 10; i++ {
		if err := k.AfterCheckpoint(i); err != nil {
			t.Fatalf("zero killer fired: %v", err)
		}
	}
}
