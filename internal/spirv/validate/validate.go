// Package validate checks well-formedness of SPIR-V subset modules — the
// analogue of spirv-val. It enforces single static assignment, id
// availability (dominance), instruction typing, block ordering, ϕ coherence
// and a simplified form of the structured control-flow rules.
//
// The fuzzer validates every variant it produces; a transformation that
// yields an invalid module indicates a bug in the transformation, and the
// spirv-opt simulated targets report emitted-invalid-SPIR-V defects through
// this package (the "spirv-opt emits illegal SPIR-V" bug class of Section 5).
package validate

import (
	"fmt"

	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/spirv/cfa"
)

// Error describes a validation failure.
type Error struct {
	Rule string // short rule identifier, e.g. "ssa.duplicate-id"
	Msg  string
}

// Error renders the violation with its rule identifier.
func (e *Error) Error() string { return fmt.Sprintf("validate: [%s] %s", e.Rule, e.Msg) }

func errf(rule, format string, args ...any) *Error {
	return &Error{Rule: rule, Msg: fmt.Sprintf(format, args...)}
}

// Module validates m, returning the first violation found or nil.
func Module(m *spirv.Module) error {
	v := &validator{m: m}
	return v.run()
}

type validator struct {
	m    *spirv.Module
	defs map[spirv.ID]*spirv.Instruction
}

func (v *validator) run() error {
	if err := v.checkHeaderAndIDs(); err != nil {
		return err
	}
	if err := v.checkTypesGlobals(); err != nil {
		return err
	}
	if err := v.checkEntryPoints(); err != nil {
		return err
	}
	for _, fn := range v.m.Functions {
		if err := v.checkFunction(fn); err != nil {
			return err
		}
	}
	return nil
}

// checkHeaderAndIDs checks capabilities, the memory model, id uniqueness and
// the bound.
func (v *validator) checkHeaderAndIDs() error {
	if len(v.m.Capabilities) == 0 {
		return errf("module.capability", "module declares no capabilities")
	}
	if v.m.MemoryModel == nil {
		return errf("module.memory-model", "module has no OpMemoryModel")
	}
	// The analyses size their per-id tables from the bound, so a bound past
	// the SPIR-V universal limit is rejected before any of them runs.
	if v.m.Bound >= cfa.MaxTable {
		return errf("module.bound", "bound %d exceeds the limit %d", v.m.Bound, cfa.MaxTable-1)
	}
	v.defs = make(map[spirv.ID]*spirv.Instruction)
	var first error
	record := func(ins *spirv.Instruction) {
		if first == nil {
			first = checkArity(ins)
		}
		if ins.Result == 0 {
			return
		}
		if first == nil {
			if _, ok := v.defs[ins.Result]; ok {
				first = errf("ssa.duplicate-id", "id %%%d defined more than once", ins.Result)
			}
			if ins.Result >= v.m.Bound {
				first = errf("module.bound", "id %%%d exceeds bound %d", ins.Result, v.m.Bound)
			}
		}
		v.defs[ins.Result] = ins
	}
	v.m.ForEachInstruction(record)
	for _, fn := range v.m.Functions {
		for _, b := range fn.Blocks {
			record(spirv.NewInstr(spirv.OpLabel, 0, b.Label))
		}
	}
	return first
}

func (v *validator) def(id spirv.ID) *spirv.Instruction { return v.defs[id] }

func (v *validator) isType(id spirv.ID) bool {
	d := v.def(id)
	return d != nil && d.Op.IsType()
}

// checkArity rejects an instruction with fewer operand words than its
// signature's fixed operands, so later checks and the module helpers they
// call can index those operands without bounds checks. Type instructions
// must match exactly unless variadic: helpers read their operands
// positionally.
func checkArity(ins *spirv.Instruction) error {
	sig, _ := spirv.Sig(ins.Op)
	n, want := len(ins.Operands), len(sig.Fixed)
	switch {
	case ins.Op.IsType() && len(sig.Variadic) > 0 && n < want:
		return errf("type.operands", "%s %%%d has %d operands, want at least %d", ins.Op, ins.Result, n, want)
	case ins.Op.IsType() && len(sig.Variadic) == 0 && n != want:
		return errf("type.operands", "%s %%%d has %d operands, want %d", ins.Op, ins.Result, n, want)
	case n < want:
		return errf("ins.operands", "%s has %d operands, want at least %d", ins.Op, n, want)
	}
	return nil
}

// checkTypesGlobals validates the module-scope section: types, constants,
// global variables and module-scope OpUndef.
func (v *validator) checkTypesGlobals() error {
	seen := make(map[spirv.ID]bool)
	for _, ins := range v.m.TypesGlobals {
		// Forward references are not allowed in the types/globals section.
		var ferr error
		ins.Uses(func(id spirv.ID) {
			if ferr == nil && !seen[id] {
				ferr = errf("module.forward-ref", "%s %%%d uses %%%d before its definition", ins.Op, ins.Result, id)
			}
		})
		if ferr != nil {
			return ferr
		}
		if ins.Result != 0 {
			seen[ins.Result] = true
		}
		switch ins.Op {
		case spirv.OpTypeVector:
			comp := spirv.ID(ins.Operands[0])
			if !v.m.IsNumericScalarType(comp) && !v.m.IsBoolType(comp) {
				return errf("type.vector-component", "OpTypeVector %%%d component %%%d is not a scalar", ins.Result, comp)
			}
			if n := ins.Operands[1]; n < 2 || n > 4 {
				return errf("type.vector-size", "OpTypeVector %%%d has %d components", ins.Result, n)
			}
		case spirv.OpTypeMatrix:
			col := spirv.ID(ins.Operands[0])
			if elem, _, ok := v.m.VectorInfo(col); !ok || !v.m.IsFloatType(elem) {
				return errf("type.matrix-column", "OpTypeMatrix %%%d column %%%d is not a float vector", ins.Result, col)
			}
		case spirv.OpTypeArray:
			if !v.isType(spirv.ID(ins.Operands[0])) {
				return errf("type.array-element", "OpTypeArray %%%d element %%%d is not a type", ins.Result, ins.Operands[0])
			}
			if n, ok := v.m.ConstantIntValue(spirv.ID(ins.Operands[1])); !ok || n <= 0 {
				return errf("type.array-length", "OpTypeArray %%%d length %%%d is not a positive integer constant", ins.Result, ins.Operands[1])
			}
		case spirv.OpTypeStruct:
			for _, w := range ins.Operands {
				if !v.isType(spirv.ID(w)) {
					return errf("type.struct-member", "OpTypeStruct %%%d member %%%d is not a type", ins.Result, w)
				}
			}
		case spirv.OpTypePointer:
			if !v.isType(spirv.ID(ins.Operands[1])) {
				return errf("type.pointer-pointee", "OpTypePointer %%%d pointee %%%d is not a type", ins.Result, ins.Operands[1])
			}
		case spirv.OpTypeFunction:
			for _, w := range ins.Operands {
				if !v.isType(spirv.ID(w)) {
					return errf("type.function", "OpTypeFunction %%%d refers to non-type %%%d", ins.Result, w)
				}
			}
		case spirv.OpConstantTrue, spirv.OpConstantFalse:
			if !v.m.IsBoolType(ins.Type) {
				return errf("const.bool-type", "%s %%%d must have bool type", ins.Op, ins.Result)
			}
		case spirv.OpConstant:
			if !v.m.IsNumericScalarType(ins.Type) {
				return errf("const.scalar-type", "OpConstant %%%d must have numeric scalar type", ins.Result)
			}
			if len(ins.Operands) != 1 {
				return errf("const.words", "OpConstant %%%d must carry one 32-bit word", ins.Result)
			}
		case spirv.OpConstantComposite:
			n, ok := v.m.CompositeMemberCount(ins.Type)
			if !ok {
				return errf("const.composite-type", "OpConstantComposite %%%d type %%%d is not a composite", ins.Result, ins.Type)
			}
			if len(ins.Operands) != n {
				return errf("const.composite-arity", "OpConstantComposite %%%d has %d members, type wants %d", ins.Result, len(ins.Operands), n)
			}
			for i, w := range ins.Operands {
				want, _ := v.m.CompositeMemberType(ins.Type, i)
				if got := v.m.TypeOf(spirv.ID(w)); got != want {
					return errf("const.composite-member", "OpConstantComposite %%%d member %d has type %%%d, want %%%d", ins.Result, i, got, want)
				}
			}
		case spirv.OpConstantNull, spirv.OpUndef:
			if !v.isType(ins.Type) {
				return errf("const.null-type", "%s %%%d type %%%d is not a type", ins.Op, ins.Result, ins.Type)
			}
		case spirv.OpVariable:
			storage, pointee, ok := v.m.PointerInfo(ins.Type)
			if !ok {
				return errf("var.pointer-type", "OpVariable %%%d type %%%d is not a pointer", ins.Result, ins.Type)
			}
			if storage != ins.Operands[0] {
				return errf("var.storage-mismatch", "OpVariable %%%d storage %d does not match pointer storage %d", ins.Result, ins.Operands[0], storage)
			}
			if ins.Operands[0] == spirv.StorageFunction {
				return errf("var.function-storage", "module-scope OpVariable %%%d cannot have Function storage", ins.Result)
			}
			if len(ins.Operands) > 1 {
				init := spirv.ID(ins.Operands[1])
				if v.m.TypeOf(init) != pointee {
					return errf("var.initializer", "OpVariable %%%d initializer %%%d does not match pointee", ins.Result, init)
				}
			}
		default:
			if !ins.Op.IsType() {
				return errf("module.section", "%s is not valid in the types/globals section", ins.Op)
			}
		}
	}
	return nil
}

// checkEntryPoints validates entry point declarations.
func (v *validator) checkEntryPoints() error {
	for _, ep := range v.m.EntryPoints {
		fnID := spirv.ID(ep.Operands[1])
		fn := v.m.Function(fnID)
		if fn == nil {
			return errf("entry.missing-function", "OpEntryPoint names missing function %%%d", fnID)
		}
		if len(fn.Params) != 0 {
			return errf("entry.params", "entry point %%%d must take no parameters", fnID)
		}
		if v.m.TypeOp(fn.ReturnType()) != spirv.OpTypeVoid {
			return errf("entry.return", "entry point %%%d must return void", fnID)
		}
	}
	return nil
}
