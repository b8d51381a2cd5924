#!/usr/bin/env python3
"""gistcr_lint: protocol linter for the gistcr latch discipline.

Clang's thread-safety analysis checks mutex/field associations but cannot
express the paper's latch protocol (no I/O or lock waits while a node latch
is held, NSN/rightlink reads only under a latch). This linter enforces
those rules with file-local heuristics; see DESIGN.md section 10 for the
invariant-to-tool mapping.

Rules
-----
  io-under-latch
      No BufferPool::Fetch/NewPage or DiskManager::ReadPage/WritePage/Sync
      call (all of which may perform disk I/O) while a PageGuard latch is
      held in the enclosing scope. A latched frame pins a shared resource
      every other operation may need; I/O under it stretches the hold time
      from nanoseconds to milliseconds and, for fetches that evict, can
      deadlock against the WAL flush path.

  blocking-lock-under-latch
      No blocking lock-manager call (locks->Lock, locks->WaitForTxn) while
      a PageGuard latch is held. Lock waits are deadlock-checked only
      against other lock waits; a latch held across one creates a
      latch/lock cycle no detector sees (paper sections 5-6: operations
      release latches before blocking and re-position afterwards).

  raw-latch-primitive
      No std::mutex / std::shared_mutex / std::condition_variable /
      pthread primitives or direct .lock()/.unlock() calls outside the
      annotated wrappers in common/mutex.h (and the RAII types built on
      them). Raw primitives bypass both Clang thread-safety analysis and
      this linter's scope tracking.

  nsn-outside-node
      No nsn()/set_nsn()/rightlink()/set_rightlink() access outside
      gist/node.{h,cc} unless a latch is held in scope. The NSN/rightlink
      pair is the split-detection protocol (paper section 10.1); reading it
      unlatched can observe a half-installed split.

  unchecked-status
      Every call to a Status/StatusOr-returning function (collected from
      the src headers) must consume the result: assign it, return it, test
      it, wrap it in GISTCR_RETURN_IF_ERROR / an assertion, or cast to
      (void) deliberately.

  sync-under-mutex
      No fsync/fdatasync, fallocate, raw pread/pwrite or DiskManager::Sync
      call while a MutexLock or SharedLock from common/mutex.h is held in
      the enclosing scope. A disk sync (or a hole punch, which waits on the
      filesystem journal) takes milliseconds, and a pread or pwrite can
      wait on the disk just the same; holding a mutex across one
      serializes every thread that touches the same shared state behind
      the platter (the whole point of the WAL flusher split, and of
      restart's lock-free log reads, DESIGN.md section 11).
      MutexLock::Unlock()/Lock() windows are tracked: I/O inside an
      unlocked window is fine.

  serialize-under-latch
      No observability serialization (DumpMetrics/DumpMetricsPrometheus/
      DumpPrometheus/DumpJson/DumpText/InspectJson/ExportTrace/
      ExportJsonString/Snapshot) while a PageGuard latch is held. These
      walk every registered metric or ring under the observability
      mutexes and build multi-kilobyte strings; doing that under a node
      latch turns a nanosecond-scale hold into a stats-scrape-scale one
      and inverts the intended latch < obs-mutex ordering.

  predicate-attach-on-snapshot-path
      No predicate attach (SignalLock/Attach/AttachAndFindConflicts) and
      no blocking lock-manager call inside a function whose name marks it
      as part of the MVCC snapshot read path (contains "Snapshot").
      Snapshot readers promise zero lock-manager traffic (DESIGN.md
      section 14.3) — the lock.acquires counter asserts it dynamically,
      and the distinct Snapshot* naming of the read-path functions is
      what makes the promise statically checkable here.

  lock-rank-inversion
      Every long-lived mutex declares a rank from the global hierarchy in
      common/lock_rank.h via GISTCR_LOCK_RANK; page latches derive a rank
      class from their page type. Acquisitions must proceed in strictly
      increasing rank (equal ranks only where the rank is marked
      `coupling`). The analyzer tracks MutexLock/SharedLock/TreeLatch
      scopes, PageGuard latches (page class per file, see the
      page-latch-class directive below), and a call-summary table for the
      lock footprints of cross-module calls (pool fetches take the shard
      mutex, WAL appends take wal.mu, ...). DESIGN.md section 15 is the
      normative catalogue.

  lock-order
      Whole-program check over the same extraction: every acquisition
      edge (held lock -> acquired lock) from every analyzed file is
      merged into one directed graph; any cycle is a potential ABBA
      deadlock and is reported with one representative edge per leg,
      each carrying file:line evidence. `--dot FILE` writes the merged
      graph for visual inspection.

  wal-append-after-unlatch
      A redo-logged page mutation must append its WAL record while the
      page latch is still held: the append assigns the LSN stamped into
      the page, and releasing the latch first lets a second writer
      interleave an older LSN over a newer image. Flags WAL appends of
      page-mutation record types (tracked through `rec.type =
      LogRecordType::k...` assignments) that execute after a latch
      release with no latch held. Txn-lifecycle records (Begin, Commit,
      Abort, End, NTA-End, checkpoints) are latch-free by design and
      exempt.

  redo-appends-wal
      Redo replays history; it must never create it. A WAL append inside
      a redo applier (a `Redo*` / `Apply*` / `Replay*` function) would
      assign fresh LSNs during recovery, corrupting the restart plan
      ordering and making recovery non-idempotent (DESIGN.md section
      16.6). Undo is exempt — it logs CLRs by design, and does so from
      `Undo*`-named functions.

  env-override
      No getenv/secure_getenv call, even one split by a line splice. The
      engine ships one configuration: every setting is a DatabaseOptions/
      ServerOptions/ClientOptions field or a named constant, so a value
      cannot come back as an environment variable that no test or
      benchmark runs with.

  page-lsn-outside-apply
      set_page_lsn may be called only inside an `Apply*`-named function.
      Each log record's page effect is written once, in its applier, which
      the forward path calls after its append and redo calls after the
      page-LSN test (DESIGN.md section 10); a page LSN stamped anywhere
      else is a second copy of some record's effect, free to drift from
      what redo repeats.

  root-step-outside-pushroot
      A function body in src/ that reads both the global NSN counter
      (`nsn->Current()`) and the root pointer (`GetRoot()`) must be
      PushRoot. The root step's order (memorize the NSN, then read the
      root) is what makes a root grow in between visible; every traversal
      takes it from PushRoot, so the order lives in one function and a
      second copy cannot drift from it (DESIGN.md section 13).

Escape hatches
--------------
  // gistcr-lint: allow(<rule>)        on the offending line or the line
                                       directly above it
  // gistcr-lint: allow-file(<rule>)   anywhere in the file
  // gistcr-lint: page-latch-class(node|meta|bitmap|heap)
                                       file-wide page-latch rank class for
                                       PageGuard latches (default: node)

Every allow() should carry a justification comment; the suppression is the
documentation of a deliberate protocol exception.

Usage
-----
  gistcr_lint.py <path>...          lint .cc/.h files (dirs recursed)
  gistcr_lint.py --dot FILE <path>  also write the merged lock graph (DOT)
  gistcr_lint.py --self-test <dir>  run the fixture expectations in <dir>:
                                    *_bad.cc must trigger the rule named by
                                    its basename (up to a "__<case>"
                                    suffix), *_good.cc must be clean
"""

import os
import re
import sys

RULES = (
    "io-under-latch",
    "blocking-lock-under-latch",
    "raw-latch-primitive",
    "nsn-outside-node",
    "unchecked-status",
    "sync-under-mutex",
    "serialize-under-latch",
    "predicate-attach-on-snapshot-path",
    "lock-rank-inversion",
    "lock-order",
    "wal-append-after-unlatch",
    "redo-appends-wal",
    "env-override",
    "page-lsn-outside-apply",
    "root-step-outside-pushroot",
)

# --- directive extraction & source stripping -------------------------------

ALLOW_RE = re.compile(r"gistcr-lint:\s*allow\(([\w,\s-]+)\)")
ALLOW_FILE_RE = re.compile(r"gistcr-lint:\s*allow-file\(([\w,\s-]+)\)")


def collect_directives(lines):
    """Returns (per_line_allows, file_allows).

    per_line_allows[i] is the set of rules suppressed on 1-based line i; a
    directive on its own (otherwise empty/comment-only) line also applies
    to the following line.
    """
    per_line = {}
    file_allows = set()
    for i, line in enumerate(lines, start=1):
        m = ALLOW_FILE_RE.search(line)
        if m:
            file_allows.update(r.strip() for r in m.group(1).split(","))
        m = ALLOW_RE.search(line)
        if m:
            rules = {r.strip() for r in m.group(1).split(",")}
            per_line.setdefault(i, set()).update(rules)
            before = line.split("//", 1)[0].strip()
            if not before:  # directive-only line: covers the next line too
                per_line.setdefault(i + 1, set()).update(rules)
    return per_line, file_allows


def strip_code(text):
    """Blanks comments and string/char literals, preserving line structure."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "code"
                out.append('"')
            else:
                out.append(c if c == "\n" else " ")
        elif state == "char":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
                out.append("'")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


# --- Status-returning name collection --------------------------------------

STATUS_DECL_RE = re.compile(
    r"^\s*(?:virtual\s+)?(?:static\s+)?(?:\[\[nodiscard\]\]\s+)?"
    r"(?:Status|StatusOr<[^;{}()]*>)\s+(\w+)\s*\(",
    re.M,
)
OTHER_DECL_RE = re.compile(
    r"^\s*(?:virtual\s+)?(?:static\s+)?(?:constexpr\s+)?"
    r"(?:void|bool|int|size_t|uint\d+_t|int\d+_t|double|float|char|auto"
    r"|PageId|Lsn|TxnId|std::\w[\w:<>,\s]*?"
    r"|(?!Status\b|StatusOr\b)[A-Z]\w*(?:<[^;{}()]*>)?)"
    r"\s*[*&]?\s+(\w+)\s*\(",
    re.M,
)


def collect_status_names(src_root):
    """Names whose every header declaration returns Status/StatusOr."""
    status, other = set(), set()
    for root, _dirs, files in os.walk(src_root):
        for f in files:
            if not f.endswith(".h"):
                continue
            try:
                with open(os.path.join(root, f), encoding="utf-8") as fh:
                    text = strip_code(fh.read())
            except OSError:
                continue
            status.update(STATUS_DECL_RE.findall(text))
            other.update(OTHER_DECL_RE.findall(text))
    return status - other


# --- lock-hierarchy extraction ---------------------------------------------

# Enum entries in common/lock_rank.h; the trailing `// coupling` comment is
# the machine-readable same-rank-nesting allowance.
RANK_ENTRY_RE = re.compile(
    r"^[ \t]*(k\w+)[ \t]*=[ \t]*(\d+)[ \t]*,?[ \t]*(//\s*coupling)?", re.M)
# A ranked wrapper declaration: Mutex mu_{GISTCR_LOCK_RANK(kWal, "wal.mu")};
LOCK_ANNOT_RE = re.compile(
    r"\b(?:Mutex|SharedMutex)\s+(\w+)\s*\{\s*"
    r"GISTCR_LOCK_RANK\(\s*(k\w+)\s*,\s*\"([^\"]+)\"\s*\)")
CLASS_DECL_RE = re.compile(r"\b(?:class|struct)\s+(\w+)\s*(?:final\s*)?"
                           r"(?::[^{;]*)?\{")
IMPL_SIG_RE = re.compile(r"^[\w:<>,*&\s\[\]]*?\b(\w+)::~?\w+\s*\(")
PAGE_CLASS_RE = re.compile(
    r"gistcr-lint:\s*page-latch-class\((node|meta|bitmap|heap)\)")

# Page-latch rank classes (mirrors deadlock::PageRankFor / ClassName).
PAGE_CLASS_LOCKS = {
    "node": ("latch.node", "kNodeLatch"),
    "meta": ("latch.meta", "kMetaLatch"),
    "bitmap": ("latch.bitmap", "kBitmapLatch"),
    "heap": ("latch.heap", "kHeapLatch"),
}

# Lock footprints of cross-module calls: while the caller's held set is
# live, the callee transiently acquires (and releases) these locks. The
# table names receivers, not types — the codebase's naming is uniform
# enough (pool_/alloc/locks/mvcc_/txns_/log_) for that to be precise.
CALL_SUMMARIES = (
    (re.compile(r"(?:\.|->)\s*(?:Fetch|NewPage|Unpin|FlushAllPages)\s*\("),
     ("bp.shard.mu",)),
    (re.compile(r"(?:\.|->)\s*FlushPage\s*\("), ("bp.shard.mu", "wal.mu")),
    (re.compile(r"\bFetchLatched\s*\("), ("bp.shard.mu",)),
    (re.compile(r"\b(?:log_?|wal_?)(?:\(\))?\s*(?:\.|->)\s*"
                r"(?:Append\w*|Flush)\s*\("), ("wal.mu",)),
    (re.compile(r"(?:\.|->)\s*(?:AppendTxnLog|NtaEnd|NtaBegin)\s*\("),
     ("wal.mu",)),
    (re.compile(r"\balloc\w*(?:\(\))?\s*(?:\.|->)\s*(?:Allocate|Free)\s*\("),
     ("alloc.mu", "bp.shard.mu", "latch.bitmap", "wal.mu")),
    (re.compile(r"\block\w*(?:\(\))?\s*(?:\.|->)\s*(?:Lock|Unlock|"
                r"WaitForTxn|SignalLock|ReleaseAllFor|"
                r"ReplicateSharedHolders|CollectWaitsFor)\s*\("),
     ("lock.shard.mu",)),
    (re.compile(r"\b(?:Set|Clear)Pending\s*\("), ("lock.pending.mu",)),
    (re.compile(r"\bpred\w*(?:\(\))?\s*(?:\.|->)\s*Attach\w*\s*\("),
     ("preds.mu",)),
    (re.compile(r"\bmvcc\w*(?:\(\))?\s*(?:\.|->)\s*"
                r"(?:Visible|Note\w+|StampCommit|Undo(?:Insert|Delete)|"
                r"SafeToReclaim|Prune\w*)\s*\("),
     ("mvcc.shard.mu",)),
    (re.compile(r"\btxns?\w*(?:\(\))?\s*(?:\.|->)\s*"
                r"(?:IsActive|ActiveTxns|HasActiveSnapshots|SnapshotHorizon)"
                r"\s*\("), ("txn.mu",)),
)

MUTEX_SCOPE_EXPR_RE = re.compile(
    r"\b(?:MutexLock|SharedLock)\s+(\w+)\s*\(\s*([^;]*?)\s*\)\s*;")
LOCAL_TYPE_RE = re.compile(r"\b([A-Z]\w*)\s*[&*]+\s*(\w+)\s*=")
# Members that point at a ranked lock owned elsewhere (eviction writeback
# re-locks its shard through Frame::shard_mu_).
MEMBER_LOCK_HINTS = {"shard_mu_": "bp.shard.mu"}
TREE_LATCH_DECL_RE = re.compile(r"\bTreeLatch\s+(\w+)\s*\(")
LATCH_VERB_RE = re.compile(
    r"\b(\w+)\s*(?:\.|->)\s*(WLatch|RLatch|TryWLatch)\s*\(")


def parse_lock_ranks(src_root):
    """Returns ({kName: numeric rank}, {coupling-allowed kNames})."""
    ranks, coupling = {}, set()
    if not src_root:
        return ranks, coupling
    path = os.path.join(src_root, "common", "lock_rank.h")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError:
        return ranks, coupling
    for m in RANK_ENTRY_RE.finditer(text):
        ranks[m.group(1)] = int(m.group(2))
        if m.group(3):
            coupling.add(m.group(1))
    return ranks, coupling


def class_stacks_by_line(lines):
    """For each (0-based) line, the tuple of enclosing class/struct names.

    Nested types report the whole chain (outer first), so a member of
    LockManager::Shard registers under both names — .cc code resolves
    `sh.mu` from LockManager method context without knowing Shard.
    """
    out = []
    depth = 0
    stack = []  # (class name, inside_depth)
    for line in lines:
        out.append(tuple(n for (n, _d) in stack))
        for m in CLASS_DECL_RE.finditer(line):
            pos = m.end() - 1  # the '{'
            d_at = depth + line[:pos].count("{") - line[:pos].count("}")
            stack.append((m.group(1), d_at + 1))
            out[-1] = tuple(n for (n, _d) in stack)
        depth += line.count("{") - line.count("}")
        if depth < 0:
            depth = 0
        stack = [(n, d) for (n, d) in stack if depth >= d]
    return out


class LockRegistry:
    """Declared ranks merged with GISTCR_LOCK_RANK annotations."""

    def __init__(self, ranks, coupling):
        self.ranks = ranks        # kName -> int
        self.coupling = coupling  # kNames allowing same-rank nesting
        self.locks = {}           # lock name -> kName
        self.members = {}         # (class, member) -> set of lock names
        self.member_names = {}    # member -> set of lock names

    def rank_of(self, lockname):
        return self.ranks.get(self.locks.get(lockname, ""), None)

    def allows_coupling(self, lockname):
        return self.locks.get(lockname, "") in self.coupling

    def add_file(self, path):
        """Collects annotations (with class context) from one file."""
        try:
            with open(path, encoding="utf-8") as fh:
                raw = fh.read()
        except OSError:
            return
        lines = raw.splitlines()
        stacks = class_stacks_by_line(strip_code(raw).splitlines())
        for i, line in enumerate(lines):
            for m in LOCK_ANNOT_RE.finditer(line):
                member, rank, lockname = m.groups()
                self.locks[lockname] = rank
                ctx = stacks[i] if i < len(stacks) else ()
                for cls in ctx:
                    self.members.setdefault(
                        (cls, member), set()).add(lockname)
                self.member_names.setdefault(member, set()).add(lockname)
        # Page-latch class nodes are always present.
        for _k, (lockname, rank) in PAGE_CLASS_LOCKS.items():
            self.locks.setdefault(lockname, rank)

    def resolve_member(self, classes, member, receiver_type=None):
        """Lock name for a member expression's trailing identifier.

        `classes` is the enclosing-class context (innermost last);
        `receiver_type` narrows nested-struct collisions (LockManager has
        Shard::mu *and* TxnShard::mu — `sh.mu` vs `ts.mu` resolve through
        the declared type of the receiver variable).
        """
        candidates = set()
        for cls in reversed(classes):
            candidates = set(self.members.get((cls, member), set()))
            if candidates:
                break
        if receiver_type is not None:
            by_type = self.members.get((receiver_type, member), set())
            narrowed = (candidates & by_type) if candidates else set(by_type)
            if narrowed:
                candidates = narrowed
        if not candidates:
            candidates = self.member_names.get(member, set())
        if len(candidates) == 1:
            return next(iter(candidates))
        return None  # unknown or ambiguous: invisible to the analysis


class LockGraphScanner:
    """Extracts acquisition events and edges from one file.

    Held state is tracked the same way FileLinter tracks latches: brace
    depth scoping for RAII scopes (MutexLock/SharedLock/TreeLatch,
    PageGuard latches) plus explicit Unlock()/Lock() windows. Call
    summaries contribute transient acquisitions (edge sources only while
    the call runs). Each blocking acquisition with a non-empty held set
    is rank-checked and adds held->acquired edges to the merged graph.
    """

    def __init__(self, path, registry, graph):
        self.path = path
        self.registry = registry
        self.graph = graph  # dict (src, dst) -> (path, line)
        self.findings = []

    def scan(self):
        try:
            with open(self.path, encoding="utf-8") as fh:
                raw = fh.read()
        except OSError:
            return []
        raw_lines = raw.splitlines()
        per_line_allows, file_allows = collect_directives(raw_lines)
        lines = strip_code(raw).splitlines()
        stacks = class_stacks_by_line(lines)

        page_cls = "node"
        for line in raw_lines:
            m = PAGE_CLASS_RE.search(line)
            if m:
                page_cls = m.group(1)
        page_lock = PAGE_CLASS_LOCKS[page_cls][0]

        reg = self.registry
        depth = 0
        impl_class = None  # Foo from `Ret Foo::Method(...)` definitions
        # Held entries: [lockname, decl_depth, raii_var|None, held_bool]
        holds = []
        guard_decl_depth = {}
        local_types = {}  # local ref/ptr var -> declared type name

        def context(i):
            ctx = list(stacks[i]) if i < len(stacks) else []
            if impl_class and impl_class not in ctx:
                ctx.insert(0, impl_class)
            return ctx

        def held_names():
            return [h[0] for h in holds if h[3]]

        def report(rule, msg, lineno):
            if rule in file_allows:
                return
            if rule in per_line_allows.get(lineno, set()):
                return
            self.findings.append((lineno, rule, msg))

        def acquire(lockname, lineno, blocking=True):
            rank = reg.rank_of(lockname)
            if rank is None:
                return
            held = [(n, reg.rank_of(n)) for n in held_names()]
            held = [(n, r) for (n, r) in held if r is not None]
            if blocking and held:
                top_name, top_rank = max(held, key=lambda h: h[1])
                if rank < top_rank:
                    report(
                        "lock-rank-inversion",
                        f"acquiring '{lockname}' (rank {rank}) while "
                        f"holding '{top_name}' (rank {top_rank}); ranks "
                        "must increase (common/lock_rank.h)", lineno)
                elif (rank == top_rank and top_name != lockname
                      and not reg.allows_coupling(lockname)):
                    report(
                        "lock-rank-inversion",
                        f"acquiring '{lockname}' at the same rank as held "
                        f"'{top_name}' without a coupling allowance",
                        lineno)
            for n, _r in held:
                if n != lockname:
                    self.graph.setdefault((n, lockname),
                                          (self.path, lineno))

        for lineno, line in enumerate(lines, start=1):
            i = lineno - 1
            if depth <= 2:
                m = IMPL_SIG_RE.match(line)
                if m:
                    impl_class = m.group(1)

            for m in GUARD_DECL_RE.finditer(line):
                guard_decl_depth[m.group(1)] = depth
            # Releases before acquisitions (same rationale as FileLinter).
            for m in LATCH_REL_RE.finditer(line):
                var = m.group(1)
                for h in reversed(holds):
                    if h[2] == var:
                        holds.remove(h)
                        break
            for m in MUTEX_UNLOCK_RE.finditer(line):
                for h in holds:
                    if h[2] == m.group(1):
                        h[3] = False
            for m in MUTEX_RELOCK_RE.finditer(line):
                for h in holds:
                    if h[2] == m.group(1):
                        h[3] = True

            # Transient callee footprints.
            for call_re, locknames in CALL_SUMMARIES:
                if call_re.search(line):
                    for n in locknames:
                        acquire(n, lineno)

            # Receiver types for nested-struct disambiguation.
            for m in LOCAL_TYPE_RE.finditer(line):
                local_types[m.group(2)] = m.group(1)

            # RAII mutex scopes.
            for m in MUTEX_SCOPE_EXPR_RE.finditer(line):
                var, expr = m.groups()
                em = re.match(
                    r"(?:\*\s*)?(?:(\w+)\s*(?:\.|->)\s*)?(\w+)$", expr)
                lockname = None
                if em:
                    receiver, member = em.groups()
                    lockname = MEMBER_LOCK_HINTS.get(member)
                    if lockname is None:
                        lockname = reg.resolve_member(
                            context(i), member,
                            receiver_type=local_types.get(receiver))
                if lockname is not None:
                    acquire(lockname, lineno)
                    holds.append([lockname, depth, var, True])

            # TreeLatch RAII (argument may continue on the next line).
            for m in TREE_LATCH_DECL_RE.finditer(line):
                tail = line[m.end():] + " " + \
                    (lines[i + 1] if i + 1 < len(lines) else "")
                em = re.search(r"&\s*(?:\w+(?:\.|->))*(\w+)", tail)
                lockname = reg.resolve_member(
                    context(i), em.group(1)) if em else None
                if lockname is not None:
                    acquire(lockname, lineno)
                    holds.append([lockname, depth, m.group(1), True])

            # PageGuard latches -> the file's page class node.
            for m in LATCH_VERB_RE.finditer(line):
                var, verb = m.groups()
                blocking = verb != "TryWLatch"
                acquire(page_lock, lineno, blocking=blocking)
                holds.append(
                    [page_lock, guard_decl_depth.get(var, depth), var, True])
            for m in ADDR_OF_GUARD_RE.finditer(line):
                var = m.group(1)
                if var in guard_decl_depth and \
                        re.search(r"\bFetchLatched\s*\(|Parent", line):
                    acquire(page_lock, lineno)
                    holds.append(
                        [page_lock, guard_decl_depth[var], var, True])
            for m in MOVE_FROM_GUARD_RE.finditer(line):
                dst_deref, dst, _sd, src = m.groups()
                for h in list(holds):
                    if h[2] == src and h[0] == page_lock:
                        if dst_deref:
                            continue
                        h[2] = dst
                        h[1] = guard_decl_depth.get(dst, h[1])

            depth += line.count("{") - line.count("}")
            if depth < 0:
                depth = 0
            holds = [h for h in holds if h[1] <= depth]
            if depth == 0:
                holds = []
                guard_decl_depth = {}
                local_types = {}
                impl_class = None
        return self.findings


def detect_cycles(graph, registry):
    """Findings for every elementary cycle family in the merged graph.

    One finding per strongly-connected component with a cycle; the
    message walks one representative cycle with per-edge evidence.
    """
    adj = {}
    for (src, dst) in graph:
        adj.setdefault(src, []).append(dst)
        adj.setdefault(dst, [])
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    def strongconnect(v):
        # Iterative Tarjan (fixture graphs are tiny, src graphs small,
        # but recursion limits are not worth risking).
        work = [(v, iter(adj[v]))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(comp)

    for v in adj:
        if v not in index:
            strongconnect(v)

    findings = []
    for comp in sccs:
        comp_set = set(comp)
        cyclic = len(comp) > 1 or any(
            (v, v) in graph for v in comp)
        if not cyclic:
            continue
        # Walk one cycle inside the component for the report.
        start = comp[0]
        path = [start]
        seen = {start}
        cur = start
        while True:
            nxt = next((w for w in adj[cur]
                        if w in comp_set and (w == start or w not in seen)),
                       None)
            if nxt is None or nxt == start:
                break
            path.append(nxt)
            seen.add(nxt)
            cur = nxt
        legs = []
        evidence = None
        for k, src in enumerate(path):
            dst = path[(k + 1) % len(path)]
            ev = graph.get((src, dst))
            if ev and evidence is None:
                evidence = ev
            where = f" [{ev[0]}:{ev[1]}]" if ev else ""
            legs.append(f"{src} -> {dst}{where}")
        msg = ("lock acquisition cycle (potential ABBA deadlock): "
               + "; ".join(legs))
        where = evidence or ("<merged>", 0)
        findings.append((where[0], where[1], "lock-order", msg))
    return findings


def write_dot(graph, registry, out_path):
    nodes = {}
    for (src, dst) in graph:
        for n in (src, dst):
            nodes[n] = registry.rank_of(n)
    lines = ["digraph lock_order {", "  rankdir=LR;",
             '  node [shape=box, fontname="monospace"];']
    for n in sorted(nodes, key=lambda x: (nodes[x] or 0, x)):
        r = nodes[n]
        label = f"{n}\\nrank {r}" if r is not None else n
        lines.append(f'  "{n}" [label="{label}"];')
    for (src, dst), (path, lineno) in sorted(graph.items()):
        lines.append(
            f'  "{src}" -> "{dst}" '
            f'[label="{os.path.basename(path)}:{lineno}", fontsize=9];')
    lines.append("}")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# --- the per-file scanner ---------------------------------------------------

LATCH_ACQ_RE = re.compile(r"\b(\w+)\s*(?:\.|->)\s*(?:WLatch|RLatch|TryWLatch)\s*\(")
# Any call that takes the address of a local PageGuard latches it on
# success (FetchLatched, LatchParentForChild, LatchEntryLeaf, ...).
ADDR_OF_GUARD_RE = re.compile(r"&\s*(\w+)\s*[,)]")
LATCH_REL_RE = re.compile(r"\b(\w+)\s*(?:\.|->)\s*(?:Unlatch|Drop)\s*\(")
GUARD_DECL_RE = re.compile(r"\bPageGuard\s+(\w+)\s*[;({=]")
# Latch transfer through moves. `*out = std::move(g)` (deref destination)
# is an out-parameter hand-off on a branch that returns immediately — the
# fall-through code still holds `g`, so it does not release anything.
MOVE_FROM_GUARD_RE = re.compile(
    r"(\*?)\s*(\w+)\s*=\s*std::move\(\s*(\*?)\s*(\w+)\s*\)")

IO_RE = re.compile(
    r"(?:\.|->)\s*(?:Fetch|NewPage|ReadPage|WritePage|Sync)\s*\("
    r"|\bFetchLatched\s*\("
)
BLOCKING_LOCK_RE = re.compile(
    r"\block(?:s|s_|_manager_?)?(?:\(\))?\s*(?:\.|->)\s*(?:Lock|WaitForTxn)\s*\("
)
RAW_PRIMITIVE_RE = re.compile(
    r"\bstd::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|shared_lock|"
    r"scoped_lock)\b"
    r"|\bpthread_(?:mutex|rwlock|cond)\w*"
    r"|\b\w+(?:\.|->)(?:try_)?lock(?:_shared)?\s*\(\s*\)"
    r"|\b\w+(?:\.|->)unlock(?:_shared)?\s*\(\s*\)"
)
ENV_RE = re.compile(r"\b(?:secure_)?getenv\s*\(")
NSN_RE = re.compile(r"(?:\.|->)\s*(?:set_)?(?:nsn|rightlink)\s*\(")
SERIALIZE_RE = re.compile(
    r"(?:\.|->|::)\s*(?:DumpMetrics(?:Prometheus)?|DumpPrometheus|DumpJson|"
    r"DumpText|InspectJson|ExportTrace|ExportJsonString|Snapshot)\s*\("
)

# predicate-attach-on-snapshot-path: function-definition detection for the
# snapshot read path (distinctly named Snapshot* family, e.g.
# FilterLeafSnapshot) and the calls banned inside it.
# The signature regex anchors at line start so receiver-qualified *calls*
# (`gist->FilterLeafSnapshot(...)`) never match.
SNAPSHOT_SIG_RE = re.compile(
    r"^\s*[\w:<>,*&\s]*?\b(?:\w+::)?(\w*Snapshot\w*)\s*\(")

# redo-appends-wal: redo appliers replay logged history and must not
# append records of their own (undo logs CLRs, but from Undo*-named
# functions). `AppendAt` (heap-page slot write) deliberately does not
# match: the paren must follow Append/AppendTxnLog directly.
REDO_SIG_RE = re.compile(
    r"^\s*[\w:<>,*&\s]*?\b(?:\w+::)?((?:Redo|Apply|Replay)\w*)\s*\(")
REDO_WAL_APPEND_RE = re.compile(
    r"(?:\.|->)\s*(?:AppendTxnLog|Append)\s*\(")

# page-lsn-outside-apply: page-LSN writes only inside Apply* appliers
# (the accessor's own definition in storage/page.h aside).
APPLY_SIG_RE = re.compile(
    r"^\s*[\w:<>,*&\s]*?\b(?:\w+::)?(Apply\w*)\s*\(")
PAGE_LSN_WRITE_RE = re.compile(r"\bset_page_lsn\s*\(")
PAGE_LSN_DEF_RE = re.compile(r"\bvoid\s+set_page_lsn\s*\(")
# root-step-outside-pushroot: any function definition (the name group is
# what function_bodies reports) that both memorizes the NSN counter and
# reads the root pointer.
FUNC_SIG_RE = re.compile(r"^\s*[\w:<>,*&\s]*?\b(?:\w+::)?(\w+)\s*\(")
NSN_CURRENT_RE = re.compile(r"\bnsn\s*(?:\(\s*\))?\s*->\s*Current\s*\(")
GET_ROOT_RE = re.compile(r"\bGetRoot\s*\(")
PREDICATE_ATTACH_RE = re.compile(
    r"(?:\.|->)\s*Attach(?:AndFindConflicts|Predicate)?\s*\("
    r"|\bSignalLock\s*\(")

# sync-under-mutex: scoped-lock tracking (MutexLock/SharedLock from
# common/mutex.h) plus the explicit Unlock()/Lock() windows MutexLock
# supports, against direct disk syncs and raw file reads and writes.
MUTEX_SCOPE_DECL_RE = re.compile(r"\b(?:MutexLock|SharedLock)\s+(\w+)\s*[({]")
MUTEX_UNLOCK_RE = re.compile(r"\b(\w+)\s*\.\s*Unlock\s*\(\s*\)")
MUTEX_RELOCK_RE = re.compile(r"\b(\w+)\s*\.\s*Lock\s*\(\s*\)")
SYNC_CALL_RE = re.compile(
    r"\b(?:::\s*)?f(?:data)?sync\s*\(|\bfallocate\s*\("
    r"|\bp(?:read|write)(?:v|64)?\s*\("
    r"|(?:\.|->)\s*Sync\s*\(")

# wal-append-after-unlatch: record types tracked through the standard
# `rec.type = LogRecordType::k...;` setup idiom; txn-lifecycle records are
# appended latch-free by design.
REC_TYPE_RE = re.compile(r"\b(\w+)\s*\.\s*type\s*=\s*LogRecordType::k(\w+)")
WAL_APPEND_RE = re.compile(
    r"(?:\.|->)\s*(?:AppendTxnLog|Append)\s*\(\s*(?:\w+\s*,\s*)?&?\s*(\w+)"
    r"\s*\)")
LIFECYCLE_LOG_TYPES = {
    "Begin", "Commit", "Abort", "End", "NtaEnd",
    "Checkpoint", "CheckpointBegin", "CheckpointEnd",
}

CONTROL_KEYWORDS = (
    "if", "while", "for", "switch", "return", "case", "else", "do",
    "sizeof", "new", "delete", "co_return", "co_await",
)
CALL_STMT_RE = re.compile(r"^\s*((?:\w+\s*(?:\(\s*\))?\s*(?:\.|->|::)\s*)*)(\w+)\s*\(")


def function_bodies(lines, sig_re):
    """Yields (name, first, end) for each function *definition* whose
    signature matches sig_re: lines[first:end] span the signature through
    the brace-matched body. A `;` before any `{` marks a declaration (or a
    call statement) and is skipped, as is a match preceded by return, `=`,
    `.` or `->` (a call)."""
    i, n = 0, len(lines)
    while i < n:
        m = sig_re.match(lines[i])
        if not m or lines[i][: m.start(1)].strip().endswith(
                ("return", "=", ".", "->")):
            i += 1
            continue
        depth = 0
        opened = False
        j = i
        while j < n:
            for c in lines[j]:
                if c == "{":
                    depth += 1
                    opened = True
                elif c == "}":
                    depth -= 1
            if not opened and ";" in lines[j]:
                break
            j += 1
            if opened and depth <= 0:
                break
        if not opened:
            i += 1
            continue
        yield m.group(1), i, j
        i = j if j > i else i + 1


class FileLinter:
    def __init__(self, path, status_names):
        self.path = path
        self.status_names = status_names
        self.findings = []  # (line, rule, message)

    def lint(self):
        try:
            with open(self.path, encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as e:
            print(f"gistcr_lint: cannot read {self.path}: {e}",
                  file=sys.stderr)
            return []
        raw_lines = raw.splitlines()
        per_line_allows, file_allows = collect_directives(raw_lines)
        lines = strip_code(raw).splitlines()

        in_node_file = os.path.basename(self.path) in ("node.h", "node.cc")

        depth = 0
        latches = []  # list of (var, entry_depth)
        guard_decl_depth = {}  # PageGuard var -> declaration depth
        mutex_holds = {}  # scoped-lock var -> [decl_depth, currently_held]
        prev_code = ""  # last non-blank stripped line (statement context)
        release_floors = []  # decl depths of guards released in this scope
        rec_types = {}  # LogRecord var -> (type name, tracking depth)

        for lineno, line in enumerate(lines, start=1):
            for m in GUARD_DECL_RE.finditer(line):
                guard_decl_depth[m.group(1)] = depth
            # Releases first: `g.Drop(); pool->Fetch(...)` on one line is
            # not a violation. A release inside a conditional that then
            # exits the block (continue/break/return) is branch-local:
            # the fall-through path still holds the latch.
            for m in LATCH_REL_RE.finditer(line):
                var = m.group(1)
                entry = next(
                    (d for (v, d) in latches if v == var), None)
                if entry is not None and depth > entry:
                    early_exit = False
                    for ahead in lines[lineno:lineno + 6]:
                        a = ahead.strip()
                        if re.match(r"(continue|break|return)\b", a):
                            early_exit = True
                            break
                        if a.startswith("}"):
                            break
                    if early_exit:
                        continue
                if any(v == var for (v, _d) in latches):
                    release_floors.append(guard_decl_depth.get(var, depth))
                latches = [(v, d) for (v, d) in latches if v != var]

            held = bool(latches)

            def report(rule, msg, _lineno=lineno):
                if rule in file_allows:
                    return
                if rule in per_line_allows.get(_lineno, set()):
                    return
                self.findings.append((_lineno, rule, msg))

            if held and IO_RE.search(line):
                report(
                    "io-under-latch",
                    "possible I/O (Fetch/NewPage/ReadPage/WritePage/Sync) "
                    f"while latch on '{latches[-1][0]}' is held",
                )
            if held and BLOCKING_LOCK_RE.search(line):
                # A trailing `false)` argument is the try-only (wait=false)
                # form, which cannot block.
                stmt = line
                for ahead in lines[lineno:lineno + 4]:
                    if ";" in stmt:
                        break
                    stmt += " " + ahead.strip()
                if not re.search(r",\s*false\s*\)\s*;", stmt):
                    report(
                        "blocking-lock-under-latch",
                        "blocking lock-manager call while latch on "
                        f"'{latches[-1][0]}' is held",
                    )
            if RAW_PRIMITIVE_RE.search(line):
                report(
                    "raw-latch-primitive",
                    "raw synchronization primitive; use the annotated "
                    "wrappers in common/mutex.h",
                )
            if not in_node_file and not held and NSN_RE.search(line):
                report(
                    "nsn-outside-node",
                    "nsn/rightlink access with no latch held in scope",
                )
            if held and SERIALIZE_RE.search(line):
                report(
                    "serialize-under-latch",
                    "observability serialization (metrics/slow-op/trace "
                    "dump) while latch on "
                    f"'{latches[-1][0]}' is held; scrape outside the latch",
                )

            # sync-under-mutex: explicit Unlock() opens a window before the
            # sync check; Lock() closes it after (both processed in line
            # order relative to the sync call's position).
            for m in MUTEX_UNLOCK_RE.finditer(line):
                if m.group(1) in mutex_holds:
                    mutex_holds[m.group(1)][1] = False
            sync_m = SYNC_CALL_RE.search(line)
            if sync_m:
                holder = next(
                    (v for v, (_d, h) in mutex_holds.items() if h), None)
                if holder is not None:
                    report(
                        "sync-under-mutex",
                        "disk I/O (fsync/fdatasync/fallocate/pread/pwrite/"
                        "DiskManager::Sync) "
                        f"while MutexLock '{holder}' is held; release the "
                        "mutex across the I/O (see the WAL flusher)",
                    )
            for m in MUTEX_RELOCK_RE.finditer(line):
                if m.group(1) in mutex_holds:
                    mutex_holds[m.group(1)][1] = True
            for m in MUTEX_SCOPE_DECL_RE.finditer(line):
                mutex_holds[m.group(1)] = [depth, True]

            # wal-append-after-unlatch: a page-mutation record appended
            # with no latch held after some latch was released.
            for m in REC_TYPE_RE.finditer(line):
                rec_types[m.group(1)] = (m.group(2), depth)
            if not held and release_floors:
                am = WAL_APPEND_RE.search(line)
                if am:
                    rtype = rec_types.get(am.group(1), (None, 0))[0]
                    if rtype is not None and \
                            rtype not in LIFECYCLE_LOG_TYPES:
                        report(
                            "wal-append-after-unlatch",
                            f"WAL append of page-mutation record 'k{rtype}'"
                            " after latch release with no latch held; the "
                            "append must run under the latch that covers "
                            "the page image it stamps",
                        )

            self.check_unchecked_status(line, prev_code, lineno, report)

            # Acquisitions after checks: the latched call itself (e.g.
            # FetchLatched) is judged against the *prior* latch set. A
            # guard declared in an outer scope keeps its latch past the
            # block it was (re-)latched in, so the entry depth is the
            # declaration depth when known.
            for m in LATCH_ACQ_RE.finditer(line):
                var = m.group(1)
                latches.append((var, guard_decl_depth.get(var, depth)))
            for m in ADDR_OF_GUARD_RE.finditer(line):
                var = m.group(1)
                if var in guard_decl_depth:
                    latches.append((var, guard_decl_depth[var]))
            for m in MOVE_FROM_GUARD_RE.finditer(line):
                dst_deref, dst, src_deref, src = m.groups()
                if dst_deref:
                    continue  # out-param hand-off; fall-through keeps src
                src_held = any(v == src for (v, _d) in latches)
                if src_held or (src_deref and dst in guard_decl_depth):
                    latches = [(v, d) for (v, d) in latches if v != src]
                    latches.append((dst, guard_decl_depth.get(dst, depth)))

            depth += line.count("{") - line.count("}")
            if depth < 0:
                depth = 0
            latches = [(v, d) for (v, d) in latches if d <= depth]
            mutex_holds = {
                v: s for v, s in mutex_holds.items() if s[0] <= depth
            }
            release_floors = [f for f in release_floors if f <= depth]
            rec_types = {
                v: t for v, t in rec_types.items() if t[1] <= depth
            }
            if depth == 0:
                latches = []
                guard_decl_depth = {}
                mutex_holds = {}
                release_floors = []
                rec_types = {}
            if line.strip():
                prev_code = line.strip()

        self.check_snapshot_paths(lines, per_line_allows, file_allows)
        self.check_redo_paths(lines, per_line_allows, file_allows)
        self.check_env_reads(lines, per_line_allows, file_allows)
        self.check_page_lsn_writes(lines, per_line_allows, file_allows)
        self.check_root_steps(lines, per_line_allows, file_allows)
        return self.findings

    def check_snapshot_paths(self, lines, per_line_allows, file_allows):
        """Second pass: predicate-attach-on-snapshot-path.

        Finds each Snapshot*-named function *definition*, brace-matches its
        body, and flags predicate attaches / blocking lock-manager calls
        inside. Scope tracking is separate from the latch pass because the
        unit here is the whole function, not a brace depth.
        """
        rule = "predicate-attach-on-snapshot-path"
        for name, i, j in function_bodies(lines, SNAPSHOT_SIG_RE):
            for k in range(i, j):
                if PREDICATE_ATTACH_RE.search(lines[k]) or \
                        BLOCKING_LOCK_RE.search(lines[k]):
                    if rule in file_allows or \
                            rule in per_line_allows.get(k + 1, set()):
                        continue
                    self.findings.append((
                        k + 1, rule,
                        "predicate attach / lock-manager call inside "
                        f"snapshot read path '{name}'; snapshot readers "
                        "must touch zero lock-manager state "
                        "(DESIGN.md section 14.3)",
                    ))

    def check_redo_paths(self, lines, per_line_allows, file_allows):
        """Second pass: redo-appends-wal.

        Finds each Redo*/Apply*/Replay*-named function *definition*,
        brace-matches its body, and flags WAL appends inside. Same
        whole-function scoping as check_snapshot_paths.
        """
        rule = "redo-appends-wal"
        for name, i, j in function_bodies(lines, REDO_SIG_RE):
            for k in range(i, j):
                if REDO_WAL_APPEND_RE.search(lines[k]):
                    if rule in file_allows or \
                            rule in per_line_allows.get(k + 1, set()):
                        continue
                    self.findings.append((
                        k + 1, rule,
                        f"WAL append inside redo applier '{name}'; redo "
                        "replays logged history and must never append "
                        "records of its own (DESIGN.md section 16.6)",
                    ))

    def check_page_lsn_writes(self, lines, per_line_allows, file_allows):
        """Second pass: page-lsn-outside-apply. Flags set_page_lsn calls
        on lines outside every Apply*-named function body."""
        rule = "page-lsn-outside-apply"
        inside = set()
        for _name, i, j in function_bodies(lines, APPLY_SIG_RE):
            inside.update(range(i, j))
        for k, line in enumerate(lines):
            if k in inside or not PAGE_LSN_WRITE_RE.search(line) or \
                    PAGE_LSN_DEF_RE.search(line):
                continue
            if rule in file_allows or \
                    rule in per_line_allows.get(k + 1, set()):
                continue
            self.findings.append((
                k + 1, rule,
                "page LSN written outside an Apply* applier; append the "
                "record, then call its applier (DESIGN.md section 10)",
            ))

    def check_root_steps(self, lines, per_line_allows, file_allows):
        """Second pass: root-step-outside-pushroot. Reports the function's
        first root-pointer read."""
        rule = "root-step-outside-pushroot"
        for name, i, j in function_bodies(lines, FUNC_SIG_RE):
            if name == "PushRoot":
                continue
            body = range(i, j)
            if not any(NSN_CURRENT_RE.search(lines[k]) for k in body):
                continue
            k = next((k for k in body if GET_ROOT_RE.search(lines[k])), None)
            if k is None or rule in file_allows or \
                    rule in per_line_allows.get(k + 1, set()):
                continue
            self.findings.append((
                k + 1, rule,
                f"'{name}' memorizes the NSN and reads the root pointer "
                "itself; take the root step from PushRoot (DESIGN.md "
                "section 13)",
            ))

    def check_env_reads(self, lines, per_line_allows, file_allows):
        """env-override, over logical lines: a line ending in a backslash
        is spliced to the next before matching, as the compiler does, and
        a finding is reported at the logical line's first line."""
        rule = "env-override"
        logical, start = "", None
        for lineno, line in enumerate(lines, start=1):
            if start is None:
                start = lineno
            if line.endswith("\\"):
                logical += line[:-1]
                continue
            logical += line
            if ENV_RE.search(logical) and rule not in file_allows and \
                    rule not in per_line_allows.get(start, set()):
                self.findings.append((
                    start, rule,
                    "environment read; make the setting an options field "
                    "or a named constant",
                ))
            logical, start = "", None

    def check_unchecked_status(self, line, prev_code, lineno, report):
        m = CALL_STMT_RE.match(line)
        if not m:
            return
        name = m.group(2)
        if name not in self.status_names:
            return
        if name in CONTROL_KEYWORDS or m.group(1).strip() == "":
            # A bare `Name(...)` with no receiver is commonly a local or a
            # constructor; only flag explicit member/namespace calls plus
            # bare names we are sure about -- keep receiver-qualified only.
            if m.group(1).strip() == "" and not re.match(
                    rf"^\s*{name}\s*\([^;]*\)\s*;", line):
                return
        # Statement must start fresh (previous code line ended a statement
        # or opened a block), otherwise we are inside an expression whose
        # context consumes the value.
        if prev_code and prev_code[-1] not in "{};":
            return
        # The call's own line must not capture or forward the result.
        if not re.search(r"\)\s*;\s*$", line):
            return  # multi-line call or used in larger expression: skip
        report(
            "unchecked-status",
            f"result of Status-returning call '{name}' is ignored "
            "(assign, test, GISTCR_RETURN_IF_ERROR, or cast to (void))",
        )


# --- driver -----------------------------------------------------------------


def iter_source_files(paths):
    for p in paths:
        if os.path.isfile(p):
            yield p
        else:
            for root, _dirs, files in os.walk(p):
                for f in sorted(files):
                    if f.endswith((".cc", ".h")):
                        yield os.path.join(root, f)


def find_src_root(paths):
    """Locates the src/ tree for Status-name collection."""
    for p in paths:
        p = os.path.abspath(p)
        cur = p if os.path.isdir(p) else os.path.dirname(p)
        while cur != os.path.dirname(cur):
            cand = os.path.join(cur, "src")
            if os.path.isdir(cand):
                return cand
            cur = os.path.dirname(cur)
    return None


def build_registry(src_root, extra_files=()):
    ranks, coupling = parse_lock_ranks(src_root)
    registry = LockRegistry(ranks, coupling)
    if src_root:
        for root, _dirs, files in os.walk(src_root):
            for f in files:
                if f.endswith(".h"):
                    registry.add_file(os.path.join(root, f))
    for path in extra_files:
        registry.add_file(path)
    return registry


def run_lint(paths, src_root=None, dot_path=None):
    src_root = src_root or find_src_root(paths)
    status_names = collect_status_names(src_root) if src_root else set()
    files = list(iter_source_files(paths))
    registry = build_registry(src_root, extra_files=files)
    graph = {}  # (src lock, dst lock) -> (path, line) first evidence
    findings = []
    for path in files:
        findings.extend(
            (path, line, rule, msg)
            for (line, rule, msg) in FileLinter(path, status_names).lint()
        )
        findings.extend(
            (path, line, rule, msg)
            for (line, rule, msg)
            in LockGraphScanner(path, registry, graph).scan()
        )
    findings.extend(detect_cycles(graph, registry))
    if dot_path:
        write_dot(graph, registry, dot_path)
    return findings


def self_test(fixture_dir):
    src_root = find_src_root([fixture_dir])
    status_names = collect_status_names(src_root) if src_root else set()
    failures = []
    checked = 0
    for f in sorted(os.listdir(fixture_dir)):
        if not f.endswith(".cc"):
            continue
        path = os.path.join(fixture_dir, f)
        findings = list(FileLinter(path, status_names).lint())
        # Graph pass per fixture: each fixture is its own closed world
        # (its annotations merge with the real src/ registry), so a
        # cycle seeded inside one file must surface from that file alone.
        registry = build_registry(src_root, extra_files=[path])
        graph = {}
        findings.extend(LockGraphScanner(path, registry, graph).scan())
        findings.extend(
            (line, rule, msg)
            for (_p, line, rule, msg) in detect_cycles(graph, registry)
        )
        rules_hit = {rule for (_l, rule, _m) in findings}
        base = f[:-3]
        if base.endswith("_bad"):
            # <rule>_bad.cc, or <rule>__<case>_bad.cc for a second fixture
            # of one rule.
            expected = base[: -len("_bad")].split("__")[0].replace("_", "-")
            if expected not in RULES:
                failures.append(f"{f}: unknown rule '{expected}'")
            elif expected not in rules_hit:
                failures.append(
                    f"{f}: expected a '{expected}' finding, got "
                    f"{sorted(rules_hit) or 'none'}"
                )
            checked += 1
        elif base.endswith("_good"):
            if findings:
                listed = ", ".join(
                    f"{l}:{r}" for (l, r, _m) in findings[:5])
                failures.append(f"{f}: expected clean, got [{listed}]")
            checked += 1
    if checked == 0:
        failures.append(f"{fixture_dir}: no *_bad.cc / *_good.cc fixtures")
    for msg in failures:
        print(f"gistcr_lint self-test FAIL: {msg}", file=sys.stderr)
    if not failures:
        print(f"gistcr_lint self-test: {checked} fixtures OK")
    return 1 if failures else 0


def main(argv):
    args = argv[1:]
    if not args or args[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if args else 2
    if args[0] == "--self-test":
        if len(args) != 2:
            print("usage: gistcr_lint.py --self-test <fixture-dir>",
                  file=sys.stderr)
            return 2
        return self_test(args[1])
    dot_path = None
    if args[0] == "--dot":
        if len(args) < 3:
            print("usage: gistcr_lint.py --dot FILE <path>...",
                  file=sys.stderr)
            return 2
        dot_path = args[1]
        args = args[2:]
    findings = run_lint(args, dot_path=dot_path)
    for path, line, rule, msg in findings:
        print(f"{path}:{line}: [{rule}] {msg}")
    if findings:
        print(f"gistcr_lint: {len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
