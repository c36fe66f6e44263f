#!/usr/bin/env python3
"""Checks that the Montgomery selects compile without a branch on their masks.

Two selects in crates/bigint/src/mont.rs take an all-zeros/all-ones mask
and pass it through `std::hint::black_box`:
- the final subtraction shared by both Montgomery kernels (`final_sub`)
  keeps `v - n` or `v`;
- the masked table scan behind every constant-trace ladder
  (`MontCtx::mul_selected`) keeps one window-table entry out of all of
  them, with one mask per entry.
In the release assembly the barrier is an empty inline-asm block
(`#APP` / `#NO_APP`) that takes the address of the stack slot holding the
mask. The operation-count harness cannot see branches the compiler adds,
so this script reads the x86-64 assembly instead.

From every barrier in `MontCtx::mont_mul_into` and `MontCtx::mont_sqr_into`
(the per-width instances of both kernels are inlined there) and in
`MontCtx::mul_selected` (kept out of line, so every ladder shares it) it
follows the control flow to the function's returns. It tracks which
registers, stack slots and flags hold data derived from the mask, the
value that reached the barrier included, and fails if any such data
- sets the flags that a conditional jump or a `cmov` reads,
- forms part of a memory address or an indirect jump, or
- is passed to a call in an argument register.
It also fails if any of the three functions is missing or has no barrier,
which is what removing the `black_box`, inlining the scan back into the
ladders or a renamed kernel looks like.

Usage (x86-64, from the repository root):

    cargo rustc --release -p shs-bigint --lib -- --emit asm
    python3 ci/check_select_asm.py target/release/deps/shs_bigint-*.s

Given several files, it checks the most recently written one.
"""

import os
import re
import sys

KERNELS = ("mont_mul_into", "mont_sqr_into", "mul_selected")

GPR = {
    "rax": ("rax", "eax", "ax", "al", "ah"),
    "rbx": ("rbx", "ebx", "bx", "bl", "bh"),
    "rcx": ("rcx", "ecx", "cx", "cl", "ch"),
    "rdx": ("rdx", "edx", "dx", "dl", "dh"),
    "rsi": ("rsi", "esi", "si", "sil"),
    "rdi": ("rdi", "edi", "di", "dil"),
    "rbp": ("rbp", "ebp", "bp", "bpl"),
    "rsp": ("rsp", "esp", "sp", "spl"),
}
for _n in range(8, 16):
    GPR[f"r{_n}"] = (f"r{_n}", f"r{_n}d", f"r{_n}w", f"r{_n}b")
CANON = {alias: full for full, aliases in GPR.items() for alias in aliases}
PARTIAL = {a for aliases in GPR.values() for a in aliases[2:]}  # 8/16-bit
ARG_REGS = ("rdi", "rsi", "rdx", "rcx", "r8", "r9")
CALLER_SAVED = ARG_REGS + ("rax", "r10", "r11")

# Mnemonic roots (size suffix stripped) that write the flags.
FLAG_WRITERS = {
    "add", "adc", "sub", "sbb", "and", "or", "xor", "cmp", "test", "inc",
    "dec", "neg", "shl", "shr", "sar", "sal", "rol", "ror", "rcl", "rcr",
    "bt", "bts", "btr", "btc", "imul", "mul", "div", "idiv", "bsf", "bsr",
    "lzcnt", "tzcnt", "popcnt", "andn", "bextr", "blsr", "blsi", "blsmsk",
    "adcx", "adox", "shld", "shrd", "ptest", "comisd", "comiss", "ucomisd",
    "ucomiss",
}
FLAG_READERS = {"adc", "sbb", "rcl", "rcr", "adcx", "adox"}
COMPARES = {"cmp", "test", "bt", "ptest", "comisd", "comiss", "ucomisd", "ucomiss"}
# Instructions whose destination register is replaced by the source.
MOVES = {
    "mov", "movabs", "movzbl", "movzbq", "movzwl", "movzwq", "movsbl",
    "movsbq", "movswl", "movswq", "movslq", "movsx", "movzx", "movsxd",
    "movd", "movq", "movdqu", "movdqa", "movups", "movaps", "movupd",
    "movapd", "pshufd", "pshuflw", "pshufhw", "lea", "bswap", "popcnt",
    "lzcnt", "tzcnt", "mulx", "shlx", "shrx", "sarx", "rorx",
}
ZERO_IDIOMS = {"xor", "pxor", "xorps", "xorpd", "sub", "psubq", "vpxor", "vxorps"}
SIZE_SUFFIX = "bwlq"
# SSE/AVX mnemonics, none of which writes the flags (`ptest` is listed above).
VECTOR_PREFIXES = ("p", "v", "mov", "shuf", "unpck", "and", "or", "xor")

MEM_RE = re.compile(
    r"^(?:%\w+:)?(?P<disp>[^(%$]*)\((?P<base>%\w+)?(?:,(?P<index>%\w+)?(?:,\d+)?)?\)$"
)
LABEL_RE = re.compile(r"^([\w.$]+):")
# Rust's panic helpers, which never return.
NORETURN_RE = re.compile(r"panic|_fail|handle_alloc_error")
KNOWN_ROOTS = FLAG_WRITERS | MOVES | {"not", "push", "pop", "call", "xchg"}


def root_of(mnemonic):
    """The mnemonic without its AT&T size suffix, where it has one."""
    if mnemonic in KNOWN_ROOTS:
        return mnemonic
    if mnemonic[-1:] in SIZE_SUFFIX and mnemonic[:-1] in KNOWN_ROOTS:
        return mnemonic[:-1]
    return mnemonic


def is_jump(mnemonic):
    return mnemonic.startswith(("j", "ret"))


def is_unconditional(mnemonic):
    return mnemonic in ("jmp", "jmpq")


def split_operands(text):
    out, depth, cur = [], 0, ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append(cur.strip())
            cur = ""
        else:
            cur += ch
    if cur.strip():
        out.append(cur.strip())
    return out


def reg_name(op):
    """Canonical name of a register operand, or None."""
    if not op.startswith("%"):
        return None
    name = op[1:]
    if name in CANON:
        return CANON[name]
    m = re.match(r"^[xyz]mm(\d+)$", name)
    if m:
        return "xmm" + m.group(1)
    return name


def parse_function(lines, start):
    """Items of the function whose label is at `start`, up to its end."""
    items = []
    for lineno in range(start + 1, len(lines)):
        raw = lines[lineno].split("#", 1)
        text = raw[0].strip()
        comment = raw[1].strip() if len(raw) > 1 else ""
        if comment in ("APP", "NO_APP") and not text:
            items.append((comment, None, None, lineno + 1))
            continue
        if not text:
            continue
        label = LABEL_RE.match(text)
        if label:
            if label.group(1).startswith(".Lfunc_end"):
                break
            items.append(("label", label.group(1), None, lineno + 1))
            continue
        if text.startswith("."):
            continue
        parts = text.split(None, 1)
        ops = split_operands(parts[1]) if len(parts) > 1 else []
        items.append(("insn", parts[0], ops, lineno + 1))
    return items


class State:
    """Mask-derived registers, flags and stack slots, and `mem`: the base
    registers of the other memory mask-derived data was stored through
    ("*" for an absolute address). A load through one of those bases reads
    mask-derived data. Distinct base registers are taken to point at
    distinct objects: the selects store through the output or entry
    pointer, and the ladders then load other pointers from the scratch."""
    __slots__ = ("regs", "flags", "slots", "mem")

    def __init__(self, regs=(), flags=False, slots=(), mem=()):
        self.regs, self.flags = frozenset(regs), flags
        self.slots, self.mem = frozenset(slots), frozenset(mem)

    def merge(self, other):
        if other is None:
            return self
        return State(self.regs | other.regs, self.flags or other.flags,
                     self.slots | other.slots, self.mem | other.mem)

    def key(self):
        return (self.regs, self.flags, self.slots, self.mem)


def slot_key(op):
    m = MEM_RE.match(op)
    if m and m.group("base") == "%rsp" and not m.group("index"):
        return (m.group("disp") or "0") + "(%rsp)"
    return None


def mem_base(op):
    """The base register of a non-stack memory operand, "*" if it has none."""
    m = MEM_RE.match(op)
    return (m and reg_name(m.group("base") or "")) or "*"


class Tracker:
    """Forward taint through one function, from each of its barriers."""

    def __init__(self, name, items):
        self.name, self.items = name, items
        self.labels = {it[1]: i for i, it in enumerate(items) if it[0] == "label"}
        self.failures = []

    def fail(self, lineno, insn, why):
        self.failures.append(f"{self.name}: line {lineno}: `{insn}`: {why}")

    def read(self, op, st, lineno, insn):
        """Taint of an operand's value; checks addresses on the way."""
        reg = reg_name(op)
        if reg:
            return reg in st.regs
        if op.startswith("$"):
            return False
        m = MEM_RE.match(op)
        if m:
            self.check_address(m, st, lineno, insn)
            slot = slot_key(op)
            return slot in st.slots if slot else mem_base(op) in st.mem
        return "*" in st.mem  # absolute memory

    def check_address(self, m, st, lineno, insn):
        for part in ("base", "index"):
            reg = reg_name(m.group(part) or "")
            if reg and reg in st.regs:
                self.fail(lineno, insn, f"mask-derived %{reg} in a memory address")

    def write(self, op, tainted, st, lineno, insn, merge=False):
        reg = reg_name(op)
        regs, slots, mem = set(st.regs), set(st.slots), st.mem
        if reg:
            partial = op[1:] in PARTIAL
            if tainted:
                regs.add(reg)
            elif not (merge or partial):
                regs.discard(reg)
        else:
            m = MEM_RE.match(op)
            if m:
                self.check_address(m, st, lineno, insn)
            slot = slot_key(op)
            if slot:
                if tainted:
                    slots.add(slot)
                elif not merge:
                    slots.discard(slot)
            elif tainted:
                mem = mem | {mem_base(op)}
        return State(regs, st.flags, slots, mem)

    def call(self, target, st, lineno, insn):
        """A call, or a jump out of the function (a tail call)."""
        tainted_args = [r for r in ARG_REGS if r in st.regs]
        if tainted_args:
            self.fail(lineno, insn, f"call with mask-derived {tainted_args}")
        if target.startswith("*"):
            self.read(target[1:], st, lineno, insn)
        regs = {r for r in st.regs if r not in CALLER_SAVED and not r.startswith("xmm")}
        return State(regs, False, st.slots, st.mem)

    def step(self, mnemonic, ops, st, lineno):
        """Applies one instruction; returns the new state."""
        insn = f"{mnemonic} {', '.join(ops)}".strip()
        root = root_of(mnemonic)
        if mnemonic.startswith("nop"):
            return st
        if mnemonic.startswith("j") and not is_unconditional(mnemonic):
            if st.flags:
                self.fail(lineno, insn, "conditional jump on mask-derived flags")
            return st
        if mnemonic.startswith("cmov"):
            if st.flags:
                self.fail(lineno, insn, "cmov on mask-derived flags")
            t = self.read(ops[0], st, lineno, insn) or self.read(ops[1], st, lineno, insn)
            return self.write(ops[1], t or st.flags, st, lineno, insn)
        if mnemonic.startswith("set"):
            return self.write(ops[0], st.flags, st, lineno, insn, merge=True)
        if root == "call":
            return self.call(ops[0] if ops else "", st, lineno, insn)
        if is_unconditional(mnemonic):
            if ops and ops[0].startswith("*") and self.read(ops[0][1:], st, lineno, insn):
                self.fail(lineno, insn, "indirect jump through mask-derived data")
            return st
        if root == "push":
            return st
        if root == "pop":
            return self.write(ops[0], False, st, lineno, insn)
        if root in ("mul", "div", "idiv") or (root == "imul" and len(ops) == 1):
            t = self.read(ops[0], st, lineno, insn) or "rax" in st.regs
            if root != "mul" and root != "imul":
                t = t or "rdx" in st.regs
            st = self.write("%rax", t, st, lineno, insn)
            st = self.write("%rdx", t, st, lineno, insn)
            return State(st.regs, t, st.slots, st.mem)
        if mnemonic in ("cqto", "cltq", "cqo", "cdqe"):
            t = "rax" in st.regs
            dst = "%rdx" if mnemonic in ("cqto", "cqo") else "%rax"
            return self.write(dst, t, st, lineno, insn)
        if not ops:
            return st

        srcs, dst = ops[:-1], ops[-1]
        flags = st.flags
        if (len(ops) == 2 and root in ZERO_IDIOMS and reg_name(ops[0])
                and reg_name(ops[0]) == reg_name(ops[1])):
            st = self.write(dst, False, st, lineno, insn)
            return State(st.regs, False if root in FLAG_WRITERS else flags, st.slots, st.mem)
        if root == "lea":
            m = MEM_RE.match(srcs[0])
            t = False
            if m:
                t = any(reg_name(m.group(p) or "") in st.regs for p in ("base", "index"))
            return self.write(dst, t, st, lineno, insn)
        t = any(self.read(op, st, lineno, insn) for op in srcs)
        if root in COMPARES:
            t = t or self.read(dst, st, lineno, insn)
            return State(st.regs, t, st.slots, st.mem)
        if root in FLAG_READERS and flags:
            t = True
        if root in MOVES:
            st = self.write(dst, t, st, lineno, insn)
        elif len(ops) == 1:  # not, neg, inc, dec and the like
            t = self.read(dst, st, lineno, insn)
            st = self.write(dst, t, st, lineno, insn)
        else:  # dst = dst op srcs
            t = t or self.read(dst, st, lineno, insn)
            st = self.write(dst, t, st, lineno, insn, merge=True)
        if root in FLAG_WRITERS:
            flags = t
        elif not (root in MOVES or root == "not" or root.startswith(VECTOR_PREFIXES)):
            flags = flags or t  # unknown instruction: assume it may set flags
        return State(st.regs, flags, st.slots, st.mem)

    def seed(self, app):
        """Taint when the barrier at item `app` returns: the mask's stack
        slot, every register that still holds a value the mask was computed
        from in the same basic block, and the flags (the inline asm may
        leave them as they were).

        The slot is the one whose address the block takes with `lea`. In a
        loop the compiler hoists that `lea` out of the loop, so a block
        without one hands the barrier the slot it last stores to, provided
        the function takes that slot's address somewhere."""
        first = app
        while first > 0 and self.items[first - 1][0] == "insn" \
                and not is_jump(self.items[first - 1][1]):
            first -= 1
        block = [(it[1], it[2]) for it in self.items[first:app] if it[0] == "insn" and it[2]]
        leas = [ops for m, ops in block if root_of(m) == "lea" and slot_key(ops[0])]
        if leas:
            slot = slot_key(leas[-1][0])
        else:
            addressed = {slot_key(it[2][0]) for it in self.items
                         if it[0] == "insn" and it[2] and root_of(it[1]) == "lea"}
            addressed.discard(None)
            stores = [slot_key(ops[-1]) for m, ops in block
                      if root_of(m) in MOVES and slot_key(ops[-1]) in addressed]
            if not stores:
                return None
            slot = stores[-1]
        # Backward slice: the instructions the stored mask depends on.
        needed, in_slice = {slot}, set()
        for i in range(len(block) - 1, -1, -1):
            mnemonic, ops = block[i]
            root = root_of(mnemonic)
            written = set() if root in COMPARES else {slot_key(ops[-1]) or reg_name(ops[-1])}
            if root in FLAG_WRITERS:
                written.add("flags")
            if not written & needed:
                continue
            in_slice.add(i)
            needed -= written
            for op in ops[:-1] if root in MOVES else ops:
                name = reg_name(op) or slot_key(op)
                if name:
                    needed.add(name)
            if mnemonic.startswith(("set", "cmov")) or root in FLAG_READERS:
                needed.add("flags")
        # The registers that hold a slice value when the barrier runs.
        live = {r for r in needed if r and r != "flags" and not r.endswith("(%rsp)")}
        for i, (mnemonic, ops) in enumerate(block):
            dst, root = reg_name(ops[-1]), root_of(mnemonic)
            if not dst or root in COMPARES:
                continue
            if i in in_slice:
                live.add(dst)
            elif root in MOVES:
                live.discard(dst)
        live.discard("rsp")
        return State(live, True, {slot})

    def run(self, start, st):
        work, seen = [(start, st)], {}
        while work:
            i, st = work.pop()
            while i < len(self.items):
                kind, a, ops, lineno = self.items[i]
                if kind == "label":
                    old = seen.get(a)
                    new = st.merge(old)
                    if old is not None and new.key() == old.key():
                        break
                    seen[a] = st = new
                elif kind == "insn":
                    if a.startswith("ret") or a == "ud2":
                        break
                    st = self.step(a, ops, st, lineno)
                    target = ops[0] if ops else ""
                    if root_of(a) == "call" and NORETURN_RE.search(target):
                        break
                    if a.startswith("j"):
                        if target in self.labels:
                            work.append((self.labels[target], st))
                        elif target.startswith(".L"):
                            self.fail(lineno, a, f"jump to unknown label {target}")
                        elif not target.startswith("*"):
                            st = self.call(target, st, lineno, f"{a} {target}")
                        if is_unconditional(a):
                            break
                i += 1


def main(argv):
    if len(argv) < 2:
        print("usage: check_select_asm.py <shs_bigint-*.s>...", file=sys.stderr)
        return 2
    path = max(argv[1:], key=os.path.getmtime)
    with open(path, encoding="utf-8", errors="replace") as f:
        lines = f.read().split("\n")
    failures = []
    for kernel in KERNELS:
        starts = [
            i for i, line in enumerate(lines)
            if LABEL_RE.match(line) and kernel in line.split(":")[0]
            and "MontCtx" in line and not line.startswith(".")
        ]
        if not starts:
            failures.append(f"{kernel}: no out-of-line body in {path}")
            continue
        for start in starts:
            items = parse_function(lines, start)
            tracker = Tracker(kernel, items)
            barriers = [i for i, it in enumerate(items) if it[0] == "APP"]
            if not barriers:
                failures.append(f"{kernel}: no black_box barrier on the select mask")
            for app in barriers:
                st = tracker.seed(app)
                if st is None:
                    tracker.fail(items[app][3], "#APP", "no stack slot handed to the barrier")
                    continue
                tracker.run(app + 1, st)
            failures.extend(dict.fromkeys(tracker.failures))
            print(f"{kernel}: {len(barriers)} barrier(s) checked, "
                  f"{len(set(tracker.failures))} finding(s)")
    if failures:
        print(f"\n{path}: a select depends on its mask:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"{path}: no branch, cmov, address or call depends on a select mask")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
