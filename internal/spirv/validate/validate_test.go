package validate_test

import (
	"strings"
	"testing"

	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/spirv/validate"
	"spirvfuzz/internal/testmod"
)

func TestCanonicalModulesValidate(t *testing.T) {
	for name, m := range testmod.All() {
		if err := validate.Module(m); err != nil {
			t.Errorf("%s: %v\n%s", name, err, m)
		}
	}
}

func TestBinaryRoundTripStillValidates(t *testing.T) {
	for name, m := range testmod.All() {
		back, err := spirv.DecodeBytes(m.EncodeBytes())
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if err := validate.Module(back); err != nil {
			t.Errorf("%s after round trip: %v", name, err)
		}
	}
}

// wantErr validates m and asserts the failure mentions rule.
func wantErr(t *testing.T, m *spirv.Module, rule string) {
	t.Helper()
	err := validate.Module(m)
	if err == nil {
		t.Fatalf("expected a %q violation, module validated\n%s", rule, m)
	}
	if !strings.Contains(err.Error(), rule) {
		t.Fatalf("expected rule %q, got %v", rule, err)
	}
}

func TestDetectsDuplicateID(t *testing.T) {
	m := testmod.Diamond()
	fn := m.Functions[0]
	// Give a body instruction the same result id as a constant.
	var victim *spirv.Instruction
	for _, ins := range fn.Blocks[0].Body {
		if ins.Result != 0 {
			victim = ins
		}
	}
	victim.Result = m.TypesGlobals[0].Result
	wantErr(t, m, "ssa.duplicate-id")
}

func TestDetectsBoundViolation(t *testing.T) {
	m := testmod.Diamond()
	m.Bound = 2
	wantErr(t, m, "module.bound")
}

func TestDetectsUseBeforeDef(t *testing.T) {
	m := testmod.Diamond()
	fn := m.Functions[0]
	// Move the entry block's condition computation after the terminator is
	// impossible structurally; instead, make the left block's CopyObject use
	// the right block's result (sibling, not dominating).
	var leftCopy, rightResult *spirv.Instruction
	for _, b := range fn.Blocks {
		for _, ins := range b.Body {
			if ins.Op == spirv.OpCopyObject {
				if leftCopy == nil {
					leftCopy = ins
				} else {
					rightResult = ins
				}
			}
		}
	}
	leftCopy.Operands[0] = uint32(rightResult.Result)
	wantErr(t, m, "ssa.dominance")
}

func TestDetectsUndefinedID(t *testing.T) {
	m := testmod.Diamond()
	fn := m.Functions[0]
	for _, ins := range fn.Blocks[0].Body {
		if ins.Op == spirv.OpFOrdLessThan {
			ins.Operands[0] = 9999
		}
	}
	wantErr(t, m, "ssa.undefined")
}

func TestDetectsMissingMergeInstruction(t *testing.T) {
	m := testmod.Diamond()
	m.Functions[0].Blocks[0].Merge = nil
	wantErr(t, m, "struct.selection-merge")
}

func TestLoopExitBranchesNeedNoMerge(t *testing.T) {
	// The loop's check block ends in OpBranchConditional without its own
	// merge instruction; that must be accepted.
	if err := validate.Module(testmod.Loop()); err != nil {
		t.Fatal(err)
	}
}

func TestDetectsPhiParentNotPredecessor(t *testing.T) {
	m := testmod.Diamond()
	fn := m.Functions[0]
	merge := fn.Blocks[len(fn.Blocks)-1]
	phi := merge.Phis[0]
	phi.Operands[1] = uint32(fn.Blocks[0].Label) // entry is not a direct pred
	wantErr(t, m, "phi.non-pred")
}

func TestDetectsPhiCoverageGap(t *testing.T) {
	m := testmod.Diamond()
	fn := m.Functions[0]
	merge := fn.Blocks[len(fn.Blocks)-1]
	phi := merge.Phis[0]
	phi.Operands = phi.Operands[:2] // drop one incoming edge
	wantErr(t, m, "phi.coverage")
}

func TestDetectsPhiTypeMismatch(t *testing.T) {
	m := testmod.Diamond()
	fn := m.Functions[0]
	merge := fn.Blocks[len(fn.Blocks)-1]
	phi := merge.Phis[0]
	phi.Operands[0] = uint32(m.EnsureConstantInt(3)) // int into float ϕ
	wantErr(t, m, "phi.value-type")
}

func TestDetectsBadBlockOrder(t *testing.T) {
	m := testmod.Loop()
	fn := m.Functions[0]
	// Move the loop header after the check block it dominates.
	fn.Blocks[1], fn.Blocks[2] = fn.Blocks[2], fn.Blocks[1]
	wantErr(t, m, "block.order")
}

func TestDetectsBranchOutOfFunction(t *testing.T) {
	m := testmod.Diamond()
	fn := m.Functions[0]
	fn.Blocks[1].Term.Operands[0] = 9999
	wantErr(t, m, "block.bad-successor")
}

func TestDetectsNonBoolCondition(t *testing.T) {
	m := testmod.Diamond()
	fn := m.Functions[0]
	c := m.EnsureConstantInt(1)
	fn.Blocks[0].Term.Operands[0] = uint32(c)
	wantErr(t, m, "term.cond-type")
}

func TestDetectsArithTypeMismatch(t *testing.T) {
	m := testmod.Caller()
	// Change the helper's FAdd second operand to an int constant.
	helper := m.Functions[0]
	for _, ins := range helper.Blocks[0].Body {
		if ins.Op == spirv.OpFAdd {
			ins.Operands[1] = uint32(m.EnsureConstantInt(1))
		}
	}
	wantErr(t, m, "type.arith-operand")
}

func TestDetectsCallArityMismatch(t *testing.T) {
	m := testmod.Caller()
	main := m.EntryPointFunction()
	for _, b := range main.Blocks {
		for _, ins := range b.Body {
			if ins.Op == spirv.OpFunctionCall {
				ins.Operands = ins.Operands[:1] // drop the argument
			}
		}
	}
	wantErr(t, m, "type.call-arity")
}

func TestDetectsStoreTypeMismatch(t *testing.T) {
	m := testmod.Diamond()
	fn := m.Functions[0]
	merge := fn.Blocks[len(fn.Blocks)-1]
	for _, ins := range merge.Body {
		if ins.Op == spirv.OpStore {
			ins.Operands[1] = uint32(m.EnsureConstantFloat(0)) // float into vec4
		}
	}
	wantErr(t, m, "type.store-object")
}

func TestDetectsBadAccessChain(t *testing.T) {
	m := testmod.LocalVars()
	fn := m.EntryPointFunction()
	for _, b := range fn.Blocks {
		for _, ins := range b.Body {
			if ins.Op == spirv.OpAccessChain && len(ins.Operands) == 2 {
				// Struct index must be a constant; swap in the loaded coord.
				ins.Operands[1] = uint32(fn.Blocks[0].Body[1].Result)
			}
		}
	}
	if err := validate.Module(m); err == nil {
		t.Fatal("expected access-chain violation")
	}
}

func TestDetectsEntryPointErrors(t *testing.T) {
	m := testmod.Diamond()
	m.EntryPoints[0].Operands[1] = 9999
	wantErr(t, m, "entry.missing-function")

	m2 := testmod.Caller()
	// Point the entry point at the float-returning helper.
	m2.EntryPoints[0].Operands[1] = uint32(m2.Functions[0].ID())
	wantErr(t, m2, "entry.")
}

func TestDetectsMissingCapability(t *testing.T) {
	m := testmod.Diamond()
	m.Capabilities = nil
	wantErr(t, m, "module.capability")
}

func TestDetectsForwardReferenceInGlobals(t *testing.T) {
	m := testmod.Diamond()
	// Move the first type after everything else; something references it.
	tg := m.TypesGlobals
	m.TypesGlobals = append(append([]*spirv.Instruction{}, tg[1:]...), tg[0])
	if err := validate.Module(m); err == nil {
		t.Fatal("expected forward-reference violation")
	}
}

func TestDetectsEntryBlockPhi(t *testing.T) {
	m := testmod.Diamond()
	fn := m.Functions[0]
	merge := fn.Blocks[len(fn.Blocks)-1]
	fn.Blocks[0].Phis = append(fn.Blocks[0].Phis, merge.Phis[0].Clone())
	if err := validate.Module(m); err == nil {
		t.Fatal("expected entry-phi violation")
	}
}

func TestDetectsCompositeExtractOutOfRange(t *testing.T) {
	m := testmod.Diamond()
	fn := m.Functions[0]
	for _, ins := range fn.Blocks[0].Body {
		if ins.Op == spirv.OpCompositeExtract {
			ins.Operands[1] = 7 // vec2 has components 0 and 1
		}
	}
	wantErr(t, m, "type.extract-index")
}

func TestDetectsReturnValueInVoidFunction(t *testing.T) {
	m := testmod.Diamond()
	fn := m.Functions[0]
	c := m.EnsureConstantFloat(1)
	last := fn.Blocks[len(fn.Blocks)-1]
	last.Term = spirv.NewInstr(spirv.OpReturnValue, 0, 0, uint32(c))
	wantErr(t, m, "term.return-type")
}

// truncateOperand drops the last operand word of the first instruction with
// opcode op in the module's binary, fixing up its word count, so decoding
// yields that instruction one operand short.
func truncateOperand(t *testing.T, m *spirv.Module, op spirv.Opcode) []uint32 {
	t.Helper()
	words := m.EncodeWords()
	for pos := 5; pos < len(words); {
		wc := int(words[pos] >> 16)
		if spirv.Opcode(words[pos]&0xFFFF) == op {
			out := append([]uint32(nil), words[:pos+wc-1]...)
			out[pos] = uint32(wc-1)<<16 | uint32(op)
			return append(out, words[pos+wc:]...)
		}
		pos += wc
	}
	t.Fatalf("module has no %s", op)
	return nil
}

func TestTruncatedTypeOperandsRejected(t *testing.T) {
	for _, op := range []spirv.Opcode{spirv.OpTypePointer, spirv.OpTypeVector, spirv.OpTypeInt, spirv.OpTypeFunction} {
		m, err := spirv.DecodeWords(truncateOperand(t, testmod.Diamond(), op))
		if err != nil {
			t.Fatalf("%s: decode: %v", op, err)
		}
		wantErr(t, m, "type.operands")
	}
}

// FuzzDecodeValidate asserts that validation reports malformed input as an
// error, never a panic, for anything the binary decoder accepts.
func FuzzDecodeValidate(f *testing.F) {
	for _, m := range testmod.All() {
		f.Add(m.EncodeBytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := spirv.DecodeBytes(data)
		if err != nil {
			return
		}
		_ = validate.Module(m) // the property is the absence of a panic
	})
}

func TestRejectsBoundPastUniversalLimit(t *testing.T) {
	m := testmod.Diamond()
	m.Bound = 0xFFFFFFFF
	wantErr(t, m, "module.bound")
}
