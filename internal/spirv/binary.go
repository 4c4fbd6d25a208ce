package spirv

import (
	"encoding/binary"
	"fmt"
)

// This file implements the SPIR-V binary module layout: a five-word header
// (magic, version, generator, bound, schema) followed by a stream of
// instructions, each led by a word whose high 16 bits give the word count
// and low 16 bits the opcode.

// EncodeWords serialises the module to SPIR-V words.
func (m *Module) EncodeWords() []uint32 { return m.appendWords(nil) }

// EncodeBytes serialises the module to little-endian bytes (the on-disk
// .spv format).
func (m *Module) EncodeBytes() []byte {
	words := m.EncodeWords()
	return appendLE(make([]byte, 0, 4*len(words)), words)
}

// appendWords appends the module's SPIR-V words to dst. Block labels and
// function ends are encoded from stack values rather than heap
// instructions, so encoding into a reused buffer allocates nothing.
func (m *Module) appendWords(dst []uint32) []uint32 {
	dst = append(dst, Magic, m.Version, Generator, uint32(m.Bound), 0)
	emit := func(ins *Instruction) { dst = appendInstr(dst, ins) }
	for _, ins := range m.Capabilities {
		emit(ins)
	}
	if m.MemoryModel != nil {
		emit(m.MemoryModel)
	}
	for _, ins := range m.EntryPoints {
		emit(ins)
	}
	for _, ins := range m.ExecModes {
		emit(ins)
	}
	for _, ins := range m.Names {
		emit(ins)
	}
	for _, ins := range m.Decorations {
		emit(ins)
	}
	for _, ins := range m.TypesGlobals {
		emit(ins)
	}
	for _, fn := range m.Functions {
		emit(fn.Def)
		for _, p := range fn.Params {
			emit(p)
		}
		for _, b := range fn.Blocks {
			dst = appendInstr(dst, &Instruction{Op: OpLabel, Result: b.Label})
			b.Instructions(emit)
		}
		dst = appendInstr(dst, &Instruction{Op: OpFunctionEnd})
	}
	return dst
}

// appendInstr appends one instruction's words: the word-count/opcode word,
// the result type and result id when present, then the operands.
func appendInstr(dst []uint32, ins *Instruction) []uint32 {
	n := 1 + len(ins.Operands)
	if ins.Type != 0 {
		n++
	}
	if ins.Result != 0 {
		n++
	}
	dst = append(dst, uint32(n)<<16|uint32(ins.Op))
	if ins.Type != 0 {
		dst = append(dst, uint32(ins.Type))
	}
	if ins.Result != 0 {
		dst = append(dst, uint32(ins.Result))
	}
	return append(dst, ins.Operands...)
}

// appendLE appends words to dst as little-endian bytes.
func appendLE(dst []byte, words []uint32) []byte {
	for _, w := range words {
		dst = binary.LittleEndian.AppendUint32(dst, w)
	}
	return dst
}

// DecodeBytes parses a little-endian .spv binary.
func DecodeBytes(data []byte) (*Module, error) {
	if len(data)%4 != 0 {
		return nil, fmt.Errorf("spirv: binary length %d is not a multiple of 4", len(data))
	}
	words := make([]uint32, len(data)/4)
	for i := range words {
		words[i] = binary.LittleEndian.Uint32(data[4*i:])
	}
	return DecodeWords(words)
}

// DecodeWords parses a module from SPIR-V words.
func DecodeWords(words []uint32) (*Module, error) {
	if len(words) < 5 {
		return nil, fmt.Errorf("spirv: module too short (%d words)", len(words))
	}
	if words[0] != Magic {
		return nil, fmt.Errorf("spirv: bad magic word %#08x", words[0])
	}
	m := &Module{Version: words[1], Bound: ID(words[3])}
	var curFn *Function
	var curBlk *Block
	pos := 5
	for pos < len(words) {
		first := words[pos]
		wc := int(first >> 16)
		op := Opcode(first & 0xFFFF)
		if wc == 0 || pos+wc > len(words) {
			return nil, fmt.Errorf("spirv: instruction at word %d has bad word count %d", pos, wc)
		}
		sig, ok := Sig(op)
		if !ok {
			return nil, fmt.Errorf("spirv: unsupported opcode %d at word %d", op, pos)
		}
		body := words[pos+1 : pos+wc]
		ins := &Instruction{Op: op}
		i := 0
		if sig.HasType {
			if i >= len(body) {
				return nil, fmt.Errorf("spirv: %s at word %d missing result type", op, pos)
			}
			ins.Type = ID(body[i])
			i++
		}
		if sig.HasResult {
			if i >= len(body) {
				return nil, fmt.Errorf("spirv: %s at word %d missing result id", op, pos)
			}
			ins.Result = ID(body[i])
			i++
		}
		ins.Operands = append([]uint32(nil), body[i:]...)
		pos += wc

		switch {
		case op == OpCapability:
			m.Capabilities = append(m.Capabilities, ins)
		case op == OpMemoryModel:
			m.MemoryModel = ins
		case op == OpEntryPoint:
			m.EntryPoints = append(m.EntryPoints, ins)
		case op == OpExecutionMode:
			m.ExecModes = append(m.ExecModes, ins)
		case op == OpName || op == OpMemberName:
			m.Names = append(m.Names, ins)
		case op == OpDecorate || op == OpMemberDecorate:
			m.Decorations = append(m.Decorations, ins)
		case op == OpFunction:
			if curFn != nil {
				return nil, fmt.Errorf("spirv: nested OpFunction %%%d", ins.Result)
			}
			curFn = &Function{Def: ins}
		case op == OpFunctionParameter:
			if curFn == nil || len(curFn.Blocks) > 0 {
				return nil, fmt.Errorf("spirv: OpFunctionParameter outside function preamble")
			}
			curFn.Params = append(curFn.Params, ins)
		case op == OpLabel:
			if curFn == nil {
				return nil, fmt.Errorf("spirv: OpLabel outside function")
			}
			curBlk = &Block{Label: ins.Result}
			curFn.Blocks = append(curFn.Blocks, curBlk)
		case op == OpFunctionEnd:
			if curFn == nil {
				return nil, fmt.Errorf("spirv: OpFunctionEnd outside function")
			}
			m.Functions = append(m.Functions, curFn)
			curFn, curBlk = nil, nil
		case curBlk != nil:
			switch {
			case op == OpPhi:
				if len(curBlk.Body) > 0 || curBlk.Merge != nil {
					return nil, fmt.Errorf("spirv: OpPhi %%%d not at start of block %%%d", ins.Result, curBlk.Label)
				}
				curBlk.Phis = append(curBlk.Phis, ins)
			case op == OpSelectionMerge || op == OpLoopMerge:
				curBlk.Merge = ins
			case op.IsTerminator():
				curBlk.Term = ins
				curBlk = nil
			default:
				curBlk.Body = append(curBlk.Body, ins)
			}
		case curFn != nil:
			return nil, fmt.Errorf("spirv: %s in function %%%d outside any block", op, curFn.ID())
		case op == OpVariable, op.IsType(), op.IsConstant(), op == OpUndef:
			m.TypesGlobals = append(m.TypesGlobals, ins)
		default:
			return nil, fmt.Errorf("spirv: %s not valid at module scope", op)
		}
	}
	if curFn != nil {
		return nil, fmt.Errorf("spirv: missing OpFunctionEnd for function %%%d", curFn.ID())
	}
	return m, nil
}
