package prog

import (
	"sam/internal/bind"
	"sam/internal/comp"
)

// Program is a loaded artifact: the decoded IR, the materialized compiled
// program, and the canonical byte form. It carries everything execution
// needs — operand bindings and output metadata travel inside the IR — so a
// process that never saw the source graph can still bind inputs and run.
// A Program is immutable and safe for concurrent use;
// sim.NewProgramFromArtifact wraps one as a runnable comp program.
type Program struct {
	ir  *comp.IR
	cp  *comp.Program
	enc []byte
}

// Bytes returns the canonical encoded artifact. The slice is shared, not
// copied; callers must not mutate it.
func (p *Program) Bytes() []byte { return p.enc }

// IR returns the decoded intermediate form.
func (p *Program) IR() *comp.IR { return p.ir }

// Compiled returns the materialized compiled program backing the artifact.
func (p *Program) Compiled() *comp.Program { return p.cp }

// Fingerprint returns the source graph's fingerprint embedded at encode
// time, the artifact's cache identity.
func (p *Program) Fingerprint() string { return p.ir.Fingerprint }

// Name returns the encoded graph name.
func (p *Program) Name() string { return p.ir.Name }

// Plan returns the operand binding plan reconstructed from the artifact's
// embedded binding metadata.
func (p *Program) Plan() *bind.Plan {
	return bind.NewPlanFromParts(p.ir.Bindings, p.ir.OutputDims)
}
