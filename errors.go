package lambdatune

import (
	"errors"

	"lambdatune/internal/core/selector"
	"lambdatune/internal/core/tuner"
	"lambdatune/internal/engine"
	"lambdatune/internal/faults"
	"lambdatune/internal/runstate"
)

// Sentinel errors returned by TuneContext and friends; match them with
// errors.Is. Errors carrying structured detail (ConfigRejectedError) are
// matched with errors.As.
var (
	// ErrInvalidOptions wraps every Options.Validate violation; the message
	// names the offending field.
	ErrInvalidOptions = errors.New("lambdatune: invalid options")

	// ErrEmptyWorkload reports a nil or zero-query workload.
	ErrEmptyWorkload = errors.New("lambdatune: empty workload")

	// ErrNoUsableSample reports that every LLM sample failed or produced an
	// unparseable configuration script; the wrapped error joins the
	// per-sample failures.
	ErrNoUsableSample = tuner.ErrNoUsableSample

	// ErrBudgetExhausted reports that the evaluation round budget ran out
	// before any candidate configuration completed the workload.
	ErrBudgetExhausted = selector.ErrBudgetExhausted

	// ErrKilled reports a simulated crash at a chaos kill point
	// (FaultPlan.CrashAfterRound / CrashAfterSaves). The checkpoint the run
	// died after is durable; resume with Options.Durability.Resume.
	ErrKilled = faults.ErrKilled

	// ErrCheckpointCorrupt reports a checkpoint file that failed its
	// length or CRC-32 verification — a torn write, truncation, or external
	// damage — with no usable previous generation to fall back to.
	ErrCheckpointCorrupt = runstate.ErrCheckpointCorrupt

	// ErrCheckpointVersion reports a checkpoint with an unknown schema
	// version (written by an incompatible build).
	ErrCheckpointVersion = runstate.ErrCheckpointVersion

	// ErrCheckpointMismatch reports a resume attempt against a checkpoint
	// taken by a different run — another workload, other selection-relevant
	// options, or another fault seed.
	ErrCheckpointMismatch = runstate.ErrCheckpointMismatch

	// ErrRuntimeClosed reports a Benchmark or Tune call on a Runtime after
	// Close. In-flight jobs at Close time still finish normally.
	ErrRuntimeClosed = errors.New("lambdatune: runtime closed")

	// ErrUnknownRelation reports a workload query that names a table the
	// database's catalog lacks, or a join or filter column that its table
	// lacks. The message names the query, the table and the column.
	ErrUnknownRelation = errors.New("lambdatune: unknown relation")

	// ErrNonFiniteCost reports a workload whose simulated runtime under the
	// default configuration is infinite or NaN — its cost estimates
	// overflow — so no configuration can be measured against it. Tuning
	// refuses such a workload before sampling the LLM.
	ErrNonFiniteCost = errors.New("lambdatune: non-finite workload cost")
)

// ConfigRejectedError reports a configuration script (an LLM response or an
// ApplyScript input) that could not be accepted, with the offending
// statement and the reason. Retrieve it with errors.As:
//
//	var rejected *lambdatune.ConfigRejectedError
//	if errors.As(err, &rejected) {
//		log.Printf("bad statement %q: %s", rejected.Stmt, rejected.Reason)
//	}
type ConfigRejectedError = engine.ConfigRejectedError
