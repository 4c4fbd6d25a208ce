package spirv

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"sync/atomic"
)

// ID is a SPIR-V result id. Id 0 is invalid and doubles as "absent".
type ID uint32

// Instruction is a single SPIR-V instruction. Type and Result hold the
// optional result-type and result ids; Operands holds the remaining operand
// words exactly as they would be encoded (ids, literals and packed strings),
// laid out according to the opcode's Signature.
type Instruction struct {
	Op       Opcode
	Type     ID
	Result   ID
	Operands []uint32
}

// NewInstr builds an instruction from operand words.
func NewInstr(op Opcode, typ, result ID, operands ...uint32) *Instruction {
	return &Instruction{Op: op, Type: typ, Result: result, Operands: operands}
}

// Clone returns a deep copy of the instruction.
func (ins *Instruction) Clone() *Instruction {
	c := *ins
	c.Operands = append([]uint32(nil), ins.Operands...)
	return &c
}

// IDOperand returns the id stored at operand word index i.
func (ins *Instruction) IDOperand(i int) ID { return ID(ins.Operands[i]) }

// idOperandIndices returns the operand word indices that are <id>
// references, resolved against the opcode signature (strings consume a
// variable number of words).
func (ins *Instruction) idOperandIndices() []int {
	sig, ok := Sig(ins.Op)
	if !ok {
		return nil
	}
	var ids []int
	i := 0
	consume := func(kind OperandKind) bool {
		if i >= len(ins.Operands) {
			return false
		}
		switch kind {
		case KindID:
			ids = append(ids, i)
			i++
		case KindLiteral:
			i++
		case KindString:
			_, n := DecodeString(ins.Operands[i:])
			i += n
		}
		return true
	}
	for _, kind := range sig.Fixed {
		if !consume(kind) {
			return ids
		}
	}
	if len(sig.Variadic) > 0 {
		for i < len(ins.Operands) {
			for _, kind := range sig.Variadic {
				if !consume(kind) {
					return ids
				}
			}
		}
	}
	return ids
}

// IDOperandIndices returns the operand word indices holding <id> references,
// resolved against the opcode signature.
func (ins *Instruction) IDOperandIndices() []int { return ins.idOperandIndices() }

// Uses calls f for every id the instruction uses (result type and id
// operands; not the result id).
func (ins *Instruction) Uses(f func(ID)) {
	if ins.Type != 0 {
		f(ins.Type)
	}
	for _, i := range ins.idOperandIndices() {
		f(ID(ins.Operands[i]))
	}
}

// UsesID reports whether the instruction uses id (as type or operand).
func (ins *Instruction) UsesID(id ID) bool {
	found := false
	ins.Uses(func(u ID) {
		if u == id {
			found = true
		}
	})
	return found
}

// MapUses rewrites every used id through f (result type and id operands;
// the result id is left unchanged).
func (ins *Instruction) MapUses(f func(ID) ID) {
	if ins.Type != 0 {
		ins.Type = f(ins.Type)
	}
	for _, i := range ins.idOperandIndices() {
		ins.Operands[i] = uint32(f(ID(ins.Operands[i])))
	}
}

// MapAllIDs rewrites every id in the instruction, including the result.
func (ins *Instruction) MapAllIDs(f func(ID) ID) {
	ins.MapUses(f)
	if ins.Result != 0 {
		ins.Result = f(ins.Result)
	}
}

// String renders the instruction in spirv-dis style ("%3 = OpIAdd %2 %1 %1").
func (ins *Instruction) String() string {
	var sb strings.Builder
	if ins.Result != 0 {
		fmt.Fprintf(&sb, "%%%d = ", ins.Result)
	}
	sb.WriteString(ins.Op.String())
	if ins.Type != 0 {
		fmt.Fprintf(&sb, " %%%d", ins.Type)
	}
	sig, _ := Sig(ins.Op)
	i := 0
	emit := func(kind OperandKind) bool {
		if i >= len(ins.Operands) {
			return false
		}
		switch kind {
		case KindID:
			fmt.Fprintf(&sb, " %%%d", ins.Operands[i])
			i++
		case KindLiteral:
			fmt.Fprintf(&sb, " %d", ins.Operands[i])
			i++
		case KindString:
			s, n := DecodeString(ins.Operands[i:])
			fmt.Fprintf(&sb, " %q", s)
			i += n
		}
		return true
	}
	for _, kind := range sig.Fixed {
		if !emit(kind) {
			break
		}
	}
	if len(sig.Variadic) > 0 {
		for i < len(ins.Operands) {
			progressed := false
			for _, kind := range sig.Variadic {
				if emit(kind) {
					progressed = true
				}
			}
			if !progressed {
				break
			}
		}
	}
	return sb.String()
}

// EncodeString packs a string into SPIR-V words: UTF-8 bytes, four per
// little-endian word, with a nul terminator (and zero padding).
func EncodeString(s string) []uint32 {
	b := append([]byte(s), 0)
	for len(b)%4 != 0 {
		b = append(b, 0)
	}
	words := make([]uint32, len(b)/4)
	for i := range words {
		words[i] = uint32(b[4*i]) | uint32(b[4*i+1])<<8 | uint32(b[4*i+2])<<16 | uint32(b[4*i+3])<<24
	}
	return words
}

// DecodeString unpacks a SPIR-V string starting at words[0], returning the
// string and the number of words consumed.
func DecodeString(words []uint32) (string, int) {
	var b []byte
	for n, w := range words {
		for shift := 0; shift < 32; shift += 8 {
			c := byte(w >> shift)
			if c == 0 {
				return string(b), n + 1
			}
			b = append(b, c)
		}
	}
	return string(b), len(words)
}

// Block is a basic block: an OpLabel id, ϕ instructions, body instructions,
// an optional merge instruction (OpSelectionMerge/OpLoopMerge), and a
// terminator.
type Block struct {
	Label ID
	Phis  []*Instruction
	Body  []*Instruction
	Merge *Instruction // nil when the block heads no structured construct
	Term  *Instruction
}

// NewBlock returns a block with the given label and terminator OpReturn.
func NewBlock(label ID) *Block {
	return &Block{Label: label, Term: NewInstr(OpReturn, 0, 0)}
}

// cloneInstrList deep-copies a slice of instructions with two bulk
// allocations: one arena for the Instruction structs and one word pool for
// all operand slices. Each cloned instruction gets a full-capacity sub-slice
// of the pool, so in-place operand writes stay private to it and any append
// reallocates — identical semantics to per-instruction copies, far fewer
// allocations. Replay-driven reduction clones modules on every ddmin query,
// which makes this the hottest allocation site in the repo.
func cloneInstrList(list []*Instruction) []*Instruction {
	if len(list) == 0 {
		return nil
	}
	arena := make([]Instruction, len(list))
	words := 0
	for _, ins := range list {
		words += len(ins.Operands)
	}
	pool := make([]uint32, words)
	out := make([]*Instruction, len(list))
	off := 0
	for i, ins := range list {
		arena[i] = *ins
		if n := len(ins.Operands); n > 0 {
			dst := pool[off : off+n : off+n]
			copy(dst, ins.Operands)
			arena[i].Operands = dst
			off += n
		}
		out[i] = &arena[i]
	}
	return out
}

// Clone deep-copies the block.
func (b *Block) Clone() *Block {
	nb := &Block{Label: b.Label}
	nb.Phis = cloneInstrList(b.Phis)
	nb.Body = cloneInstrList(b.Body)
	if b.Merge != nil {
		nb.Merge = b.Merge.Clone()
	}
	if b.Term != nil {
		nb.Term = b.Term.Clone()
	}
	return nb
}

// Successors returns the ids of the blocks this block branches to.
func (b *Block) Successors() []ID { return b.AppendSuccessors(nil) }

// AppendSuccessors appends the ids of the blocks this block branches to, in
// terminator operand order, to dst.
func (b *Block) AppendSuccessors(dst []ID) []ID {
	if b.Term == nil {
		return dst
	}
	switch b.Term.Op {
	case OpBranch:
		return append(dst, b.Term.IDOperand(0))
	case OpBranchConditional:
		return append(dst, b.Term.IDOperand(1), b.Term.IDOperand(2))
	case OpSwitch:
		dst = append(dst, b.Term.IDOperand(1))
		for i := 2; i+1 < len(b.Term.Operands); i += 2 {
			dst = append(dst, ID(b.Term.Operands[i+1]))
		}
	}
	return dst
}

// Instructions calls f over every instruction in the block in order
// (ϕs, merge, body, terminator). Iteration order matches encoding order.
func (b *Block) Instructions(f func(*Instruction)) {
	for _, p := range b.Phis {
		f(p)
	}
	for _, ins := range b.Body {
		f(ins)
	}
	if b.Merge != nil {
		f(b.Merge)
	}
	if b.Term != nil {
		f(b.Term)
	}
}

// FindBody returns the index in Body of the instruction with the given
// result id, or -1.
func (b *Block) FindBody(id ID) int {
	for i, ins := range b.Body {
		if ins.Result == id {
			return i
		}
	}
	return -1
}

// Function is a SPIR-V function: its OpFunction instruction, parameters,
// and blocks (the first block is the entry block).
type Function struct {
	Def    *Instruction // OpFunction
	Params []*Instruction
	Blocks []*Block
}

// ID returns the function's result id.
func (f *Function) ID() ID { return f.Def.Result }

// TypeID returns the function's OpTypeFunction id.
func (f *Function) TypeID() ID { return f.Def.IDOperand(1) }

// ReturnType returns the function's return type id.
func (f *Function) ReturnType() ID { return f.Def.Type }

// Control returns the function control mask (None/Inline/DontInline).
func (f *Function) Control() uint32 { return f.Def.Operands[0] }

// SetControl sets the function control mask.
func (f *Function) SetControl(mask uint32) { f.Def.Operands[0] = mask }

// Entry returns the entry block.
func (f *Function) Entry() *Block { return f.Blocks[0] }

// Block returns the block with the given label id, or nil.
func (f *Function) Block(label ID) *Block {
	for _, b := range f.Blocks {
		if b.Label == label {
			return b
		}
	}
	return nil
}

// BlockIndex returns the position of the block with the given label, or -1.
func (f *Function) BlockIndex(label ID) int {
	for i, b := range f.Blocks {
		if b.Label == label {
			return i
		}
	}
	return -1
}

// Clone deep-copies the function.
func (f *Function) Clone() *Function {
	nf := &Function{Def: f.Def.Clone(), Params: cloneInstrList(f.Params)}
	if len(f.Blocks) > 0 {
		nf.Blocks = make([]*Block, len(f.Blocks))
		for i, b := range f.Blocks {
			nf.Blocks[i] = b.Clone()
		}
	}
	return nf
}

// Instructions calls f over every instruction of the function in encoding
// order.
func (f *Function) Instructions(fn func(*Instruction)) {
	fn(f.Def)
	for _, p := range f.Params {
		fn(p)
	}
	for _, b := range f.Blocks {
		fn(NewInstr(OpLabel, 0, b.Label)) // synthesised label marker
		b.Instructions(fn)
	}
}

// Module is a SPIR-V module.
type Module struct {
	Version      uint32 // version word of the header (e.g. 0x00010500)
	Bound        ID     // one more than the largest id in use
	Capabilities []*Instruction
	MemoryModel  *Instruction
	EntryPoints  []*Instruction
	ExecModes    []*Instruction
	Names        []*Instruction // OpName / OpMemberName
	Decorations  []*Instruction // OpDecorate / OpMemberDecorate
	TypesGlobals []*Instruction // types, constants, global variables, in order
	Functions    []*Function

	// fp caches the SHA-256 of the canonical encoding (Fingerprint). Module
	// mutator methods clear it; Clone deliberately does not copy it, so a
	// clone always recomputes from its own content. See fingerprint.go.
	fp atomic.Pointer[[sha256.Size]byte]
}

// SPIR-V binary constants.
const (
	Magic     uint32 = 0x07230203
	Version15 uint32 = 0x00010500
	// Generator is this tool's generator magic word in emitted binaries.
	Generator uint32 = 0x0000FA22
)

// NewModule returns an empty module with the standard shader preamble
// (Shader capability, Logical/GLSL450 memory model).
func NewModule() *Module {
	return &Module{
		Version:      Version15,
		Bound:        1,
		Capabilities: []*Instruction{NewInstr(OpCapability, 0, 0, CapabilityShader)},
		MemoryModel:  NewInstr(OpMemoryModel, 0, 0, AddressingLogical, MemoryModelGLSL450),
	}
}

// FreshID allocates a new id.
func (m *Module) FreshID() ID {
	id := m.Bound
	m.Bound++
	m.InvalidateFingerprint()
	return id
}

// ReserveIDs allocates n consecutive fresh ids and returns the first.
func (m *Module) ReserveIDs(n int) ID {
	id := m.Bound
	m.Bound += ID(n)
	m.InvalidateFingerprint()
	return id
}

// ForEachInstruction calls f over every instruction in module order.
func (m *Module) ForEachInstruction(f func(*Instruction)) {
	for _, ins := range m.Capabilities {
		f(ins)
	}
	if m.MemoryModel != nil {
		f(m.MemoryModel)
	}
	for _, ins := range m.EntryPoints {
		f(ins)
	}
	for _, ins := range m.ExecModes {
		f(ins)
	}
	for _, ins := range m.Names {
		f(ins)
	}
	for _, ins := range m.Decorations {
		f(ins)
	}
	for _, ins := range m.TypesGlobals {
		f(ins)
	}
	for _, fn := range m.Functions {
		f(fn.Def)
		for _, p := range fn.Params {
			f(p)
		}
		for _, b := range fn.Blocks {
			b.Instructions(f)
		}
	}
}

// Def returns the instruction defining id: a type, constant, global
// variable, function, parameter or an instruction inside a function body.
// Block labels resolve to a synthesised OpLabel instruction.
func (m *Module) Def(id ID) *Instruction {
	for _, ins := range m.TypesGlobals {
		if ins.Result == id {
			return ins
		}
	}
	for _, fn := range m.Functions {
		if fn.Def.Result == id {
			return fn.Def
		}
		for _, p := range fn.Params {
			if p.Result == id {
				return p
			}
		}
		for _, b := range fn.Blocks {
			if b.Label == id {
				return NewInstr(OpLabel, 0, b.Label)
			}
			var found *Instruction
			b.Instructions(func(ins *Instruction) {
				if ins.Result == id {
					found = ins
				}
			})
			if found != nil {
				return found
			}
		}
	}
	return nil
}

// Function returns the function with the given id, or nil.
func (m *Module) Function(id ID) *Function {
	for _, fn := range m.Functions {
		if fn.ID() == id {
			return fn
		}
	}
	return nil
}

// EntryPointFunction returns the function named by the first OpEntryPoint,
// or nil if the module declares no entry point.
func (m *Module) EntryPointFunction() *Function {
	if len(m.EntryPoints) == 0 {
		return nil
	}
	return m.Function(m.EntryPoints[0].IDOperand(1))
}

// cloneArena bulk-allocates the storage for one Module.Clone so the deep copy
// costs a handful of allocations instead of a few per block. Capacities are
// exact, so the backing arrays never grow and interior pointers stay valid.
type cloneArena struct {
	instrs []Instruction
	words  []uint32
	ptrs   []*Instruction
	blocks []Block
	bptrs  []*Block
	fns    []Function
}

func (a *cloneArena) instr(ins *Instruction) *Instruction {
	a.instrs = append(a.instrs, *ins)
	ni := &a.instrs[len(a.instrs)-1]
	if n := len(ins.Operands); n > 0 {
		off := len(a.words)
		a.words = append(a.words, ins.Operands...)
		ni.Operands = a.words[off : off+n : off+n]
	}
	return ni
}

func (a *cloneArena) list(l []*Instruction) []*Instruction {
	if len(l) == 0 {
		return nil
	}
	off := len(a.ptrs)
	for _, ins := range l {
		a.ptrs = append(a.ptrs, a.instr(ins))
	}
	return a.ptrs[off : off+len(l) : off+len(l)]
}

// Clone deep-copies the module.
func (m *Module) Clone() *Module {
	instrs, words, blocks := 0, 0, 0
	m.ForEachInstruction(func(ins *Instruction) {
		instrs++
		words += len(ins.Operands)
	})
	for _, fn := range m.Functions {
		blocks += len(fn.Blocks)
	}
	a := &cloneArena{
		instrs: make([]Instruction, 0, instrs),
		words:  make([]uint32, 0, words),
		ptrs:   make([]*Instruction, 0, instrs),
		blocks: make([]Block, 0, blocks),
		bptrs:  make([]*Block, 0, blocks),
		fns:    make([]Function, 0, len(m.Functions)),
	}
	nm := &Module{Version: m.Version, Bound: m.Bound}
	nm.Capabilities = a.list(m.Capabilities)
	if m.MemoryModel != nil {
		nm.MemoryModel = a.instr(m.MemoryModel)
	}
	nm.EntryPoints = a.list(m.EntryPoints)
	nm.ExecModes = a.list(m.ExecModes)
	nm.Names = a.list(m.Names)
	nm.Decorations = a.list(m.Decorations)
	nm.TypesGlobals = a.list(m.TypesGlobals)
	if len(m.Functions) > 0 {
		nm.Functions = make([]*Function, len(m.Functions))
		for i, fn := range m.Functions {
			a.fns = append(a.fns, Function{Def: a.instr(fn.Def), Params: a.list(fn.Params)})
			nf := &a.fns[len(a.fns)-1]
			if len(fn.Blocks) > 0 {
				boff := len(a.bptrs)
				for _, b := range fn.Blocks {
					a.blocks = append(a.blocks, Block{
						Label: b.Label,
						Phis:  a.list(b.Phis),
						Body:  a.list(b.Body),
					})
					nb := &a.blocks[len(a.blocks)-1]
					if b.Merge != nil {
						nb.Merge = a.instr(b.Merge)
					}
					if b.Term != nil {
						nb.Term = a.instr(b.Term)
					}
					a.bptrs = append(a.bptrs, nb)
				}
				nf.Blocks = a.bptrs[boff : boff+len(fn.Blocks) : boff+len(fn.Blocks)]
			}
			nm.Functions[i] = nf
		}
	}
	return nm
}

// InstructionCount returns the total number of instructions in the module,
// the size measure used for reduction-quality experiments (Section 4.2).
func (m *Module) InstructionCount() int {
	n := 0
	m.ForEachInstruction(func(*Instruction) { n++ })
	// Labels are not visited by ForEachInstruction; count them as
	// instructions, as spirv-dis listings do.
	for _, fn := range m.Functions {
		n += len(fn.Blocks) // one OpLabel per block
		n++                 // OpFunctionEnd
	}
	return n
}

// String renders the whole module as a disassembly listing.
func (m *Module) String() string {
	var sb strings.Builder
	m.writeListing(&sb)
	return sb.String()
}

func (m *Module) writeListing(sb *strings.Builder) {
	emit := func(ins *Instruction) { sb.WriteString(ins.String()); sb.WriteByte('\n') }
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
			fmt.Fprintf(sb, "%%%d = OpLabel\n", b.Label)
			b.Instructions(emit)
		}
		sb.WriteString("OpFunctionEnd\n")
	}
}
