package repro.core

import scala.collection.mutable

/** A minimal long-keyed binary min-heap over packed `(degree, vertex)` keys.
  *
  * The OTCD/TCD peeling loop uses lazy deletion: every degree change pushes a
  * fresh entry and stale entries are skipped at pop time, giving the
  * `O(log |V|)` per-update bound the paper assumes for H_v (§5.2).
  */
private[repro] final class LongMinHeap(initialCapacity: Int = 64) {
  private var arr = new Array[Long](math.max(4, initialCapacity))
  private var n = 0

  def size: Int = n
  def nonEmpty: Boolean = n > 0
  def isEmpty: Boolean = n == 0

  def push(key: Long): Unit = {
    if (n == arr.length) arr = java.util.Arrays.copyOf(arr, arr.length * 2)
    arr(n) = key
    var i = n
    n += 1
    while (i > 0) {
      val p = (i - 1) >> 1
      if (arr(p) <= arr(i)) return
      val tmp = arr(p); arr(p) = arr(i); arr(i) = tmp
      i = p
    }
  }

  def peek: Long = arr(0)

  def pop(): Long = {
    val top = arr(0)
    n -= 1
    arr(0) = arr(n)
    var i = 0
    var continue = true
    while (continue) {
      val l = 2 * i + 1
      val r = l + 1
      var m = i
      if (l < n && arr(l) < arr(m)) m = l
      if (r < n && arr(r) < arr(m)) m = r
      if (m == i) continue = false
      else { val tmp = arr(m); arr(m) = arr(i); arr(i) = tmp; i = m }
    }
    top
  }

  def clear(): Unit = n = 0
}

/** Temporal Edge List (paper §5.1) — the in-memory representation of a
  * temporal graph on which TCD operations execute.
  *
  * Edges live in parallel primitive arrays and are threaded through four
  * intrusive doubly-linked lists:
  *
  *   - '''TL(t)''' — all edges with timestamp `t`; the TLs themselves are
  *     linked into an ascending ''timeline'' so `get_TTI`, `next_TL`,
  *     `prev_TL` and `del_TL` are O(1) (Table 1 of the paper).
  *   - '''SL(v) / DL(v)''' — all edges whose source / destination is `v`
  *     (undirected adjacency split by stored orientation, as in the paper).
  *   - '''PL(u,v)''' — all parallel edges of one vertex pair; this extra
  *     dimension (not in the paper's figure but implied by §6.2) lets the
  *     link-strength extension purge a weakening pair in time linear in the
  *     number of its remaining edges.
  *
  * Degrees count ''distinct neighbours'' (paper's definition). A vertex heap
  * H_v ordered by degree drives decomposition. All Table-1 manipulations are
  * O(1); `truncate`/`decompose` are streams of `del_edge` calls.
  *
  * Instances are single-threaded and mutable; `copy()` snapshots the alive
  * edges into a fresh TEL. `addEdge` implements the dynamic-graph extension
  * (§6.1): timestamps may only append at the tail of the timeline.
  *
  * @param h link-strength lower bound (§6.2); 1 = plain TCQ semantics
  */
final class TEL private (val h: Int) {

  // ---- edge storage (parallel arrays, grown on demand) ----
  private var us: Array[Long] = new Array[Long](16)
  private var vs: Array[Long] = new Array[Long](16)
  private var ets: Array[Int] = new Array[Int](16)
  private var alive: Array[Boolean] = new Array[Boolean](16)
  private var tlNext, tlPrev, slNext, slPrev, dlNext, dlPrev, plNext, plPrev: Array[Int] =
    new Array[Int](16)
  private var nEdges = 0        // total ever added (array high-water mark)
  private var nAlive = 0

  // ---- time nodes (one per distinct timestamp, linked ascending) ----
  private var tVals: Array[Int] = new Array[Int](16)
  private var tnNext, tnPrev, tlHead, tlTail, tlCount: Array[Int] = new Array[Int](16)
  private var nTimeNodes = 0
  private var headTn = -1
  private var tailTn = -1
  private val tnOf = mutable.HashMap.empty[Int, Int] // timestamp -> node id

  // ---- per-vertex and per-pair state ----
  private val slHead = mutable.LongMap.empty[Int]
  private val slTail = mutable.LongMap.empty[Int]
  private val dlHead = mutable.LongMap.empty[Int]
  private val dlTail = mutable.LongMap.empty[Int]
  private val plHeadM = mutable.LongMap.empty[Int]
  private val plTailM = mutable.LongMap.empty[Int]
  private val pairCount = mutable.LongMap.empty[Int]
  private val degree = mutable.LongMap.empty[Int]

  private val heap = new LongMinHeap()
  private val purgeQueue = mutable.Queue.empty[Long]
  private val purgePending = mutable.LongMap.empty[Boolean]

  // ---------------------------------------------------------------- queries

  def numAliveEdges: Int = nAlive
  def numVertices: Int = degree.size
  def isEmpty: Boolean = nAlive == 0
  def vertices: Iterator[Long] = degree.keysIterator
  def degreeOf(v: Long): Int = degree.getOrElse(v, 0)
  def strengthOf(u: Long, v: Long): Int =
    pairCount.getOrElse(TemporalEdge.pairKey(u, v), 0)

  /** `get_TTI` (Table 1): head and tail of the timeline, O(1). */
  def tti: Option[Interval] =
    if (nAlive == 0) None else Some(Interval(tVals(headTn), tVals(tailTn)))

  /** Alive distinct timestamps in ascending order (walks the timeline). */
  def timestamps: Vector[Int] = {
    val b = Vector.newBuilder[Int]
    var tn = headTn
    while (tn != -1) { b += tVals(tn); tn = tnNext(tn) }
    b.result()
  }

  /** All alive edges in timeline order. */
  def edges: Vector[TemporalEdge] = {
    val b = Vector.newBuilder[TemporalEdge]
    var tn = headTn
    while (tn != -1) {
      var e = tlHead(tn)
      while (e != -1) { b += TemporalEdge(us(e), vs(e), ets(e)); e = tlNext(e) }
      tn = tnNext(tn)
    }
    b.result()
  }

  /** Snapshot the current graph as a [[CoreResult]] (None when empty). */
  def snapshot(): Option[CoreResult] =
    tti.map(i => CoreResult(i, degree.keysIterator.toSet, edges))

  // ------------------------------------------------------------ construction

  private def growEdges(): Unit = {
    val cap = us.length * 2
    us = java.util.Arrays.copyOf(us, cap); vs = java.util.Arrays.copyOf(vs, cap)
    ets = java.util.Arrays.copyOf(ets, cap); alive = java.util.Arrays.copyOf(alive, cap)
    tlNext = java.util.Arrays.copyOf(tlNext, cap); tlPrev = java.util.Arrays.copyOf(tlPrev, cap)
    slNext = java.util.Arrays.copyOf(slNext, cap); slPrev = java.util.Arrays.copyOf(slPrev, cap)
    dlNext = java.util.Arrays.copyOf(dlNext, cap); dlPrev = java.util.Arrays.copyOf(dlPrev, cap)
    plNext = java.util.Arrays.copyOf(plNext, cap); plPrev = java.util.Arrays.copyOf(plPrev, cap)
  }

  private def growTimeNodes(): Unit = {
    val cap = tVals.length * 2
    tVals = java.util.Arrays.copyOf(tVals, cap)
    tnNext = java.util.Arrays.copyOf(tnNext, cap); tnPrev = java.util.Arrays.copyOf(tnPrev, cap)
    tlHead = java.util.Arrays.copyOf(tlHead, cap); tlTail = java.util.Arrays.copyOf(tlTail, cap)
    tlCount = java.util.Arrays.copyOf(tlCount, cap)
  }

  /** `add_TL(t)` (§6.1): appends a new time node at the tail. The caller
    * guarantees `t` is strictly greater than every existing timestamp.
    */
  private def addTimeNode(t: Int): Int = {
    if (nTimeNodes == tVals.length) growTimeNodes()
    val tn = nTimeNodes
    nTimeNodes += 1
    tVals(tn) = t; tlHead(tn) = -1; tlTail(tn) = -1; tlCount(tn) = 0
    tnNext(tn) = -1; tnPrev(tn) = tailTn
    if (tailTn != -1) tnNext(tailTn) = tn else headTn = tn
    tailTn = tn
    tnOf(t) = tn
    tn
  }

  private def incDegree(x: Long): Unit = {
    val d = degree.getOrElse(x, 0) + 1
    degree(x) = d
    heap.push((d.toLong << 32) | x)
  }

  private def decDegree(x: Long): Unit = {
    val d = degree(x) - 1
    if (d == 0) degree.remove(x)
    else { degree(x) = d; heap.push((d.toLong << 32) | x) }
  }

  /** `add_edge(u, v, t)` (§6.1): dynamic append. Requires `u != v`, ids in
    * `[0, 2^31)`, and `t` no earlier than the current maximum timestamp.
    */
  def addEdge(u: Long, v: Long, t: Int): Unit = {
    require(u != v, s"self-loop ($u,$v,$t) not allowed")
    require(u >= 0 && v >= 0 && u < Int.MaxValue && v < Int.MaxValue,
      "vertex ids must fit in 31 bits")
    require(tailTn == -1 || t >= tVals(tailTn),
      s"timestamps must be appended in order: $t < ${tVals(tailTn)}")
    if (nEdges == us.length) growEdges()
    val e = nEdges
    nEdges += 1
    us(e) = u; vs(e) = v; ets(e) = t; alive(e) = true
    nAlive += 1
    // TL
    val tn = tnOf.getOrElse(t, addTimeNode(t))
    tlNext(e) = -1; tlPrev(e) = tlTail(tn)
    if (tlTail(tn) != -1) tlNext(tlTail(tn)) = e else tlHead(tn) = e
    tlTail(tn) = e; tlCount(tn) += 1
    // SL / DL
    slNext(e) = -1; slPrev(e) = slTail.getOrElse(u, -1)
    slTail.get(u) match {
      case Some(tail) => slNext(tail) = e
      case None       => slHead(u) = e
    }
    slTail(u) = e
    dlNext(e) = -1; dlPrev(e) = dlTail.getOrElse(v, -1)
    dlTail.get(v) match {
      case Some(tail) => dlNext(tail) = e
      case None       => dlHead(v) = e
    }
    dlTail(v) = e
    // PL + degree
    val key = TemporalEdge.pairKey(u, v)
    plNext(e) = -1; plPrev(e) = plTailM.getOrElse(key, -1)
    plTailM.get(key) match {
      case Some(tail) => plNext(tail) = e
      case None       => plHeadM(key) = e
    }
    plTailM(key) = e
    val c = pairCount.getOrElse(key, 0) + 1
    pairCount(key) = c
    if (c == 1) { incDegree(u); incDegree(v) }
    if (h > 1) {
      // Pairs below the strength bound are purge-pending from the start;
      // reaching h cancels the pending flag (stale queue entries are skipped).
      if (c < h) {
        if (!purgePending.getOrElse(key, false)) {
          purgePending(key) = true
          purgeQueue.enqueue(key)
        }
      } else if (c == h && purgePending.getOrElse(key, false)) {
        purgePending(key) = false
      }
    }
  }

  // -------------------------------------------------------------- deletion

  private def removeTimeNode(tn: Int): Unit = {
    val p = tnPrev(tn); val nx = tnNext(tn)
    if (p != -1) tnNext(p) = nx else headTn = nx
    if (nx != -1) tnPrev(nx) = p else tailTn = p
    tnOf.remove(tVals(tn))
  }

  /** `del_edge(e)` (Table 1): O(1) unlink from all four lists plus degree /
    * strength bookkeeping. Pairs whose strength drops into `(0, h)` are
    * queued for purging (§6.2); `drainPurges()` completes the cascade.
    */
  private def delEdge(e: Int): Unit = {
    if (!alive(e)) return
    alive(e) = false
    nAlive -= 1
    val u = us(e); val v = vs(e); val t = ets(e)
    // TL unlink
    val tn = tnOf(t)
    val tp = tlPrev(e); val tx = tlNext(e)
    if (tp != -1) tlNext(tp) = tx else tlHead(tn) = tx
    if (tx != -1) tlPrev(tx) = tp else tlTail(tn) = tp
    tlCount(tn) -= 1
    if (tlCount(tn) == 0) removeTimeNode(tn) // del_TL once its last edge dies
    // SL unlink
    val sp = slPrev(e); val sx = slNext(e)
    if (sp != -1) slNext(sp) = sx else { if (sx != -1) slHead(u) = sx else slHead.remove(u) }
    if (sx != -1) slPrev(sx) = sp else { if (sp != -1) slTail(u) = sp else slTail.remove(u) }
    // DL unlink
    val dp = dlPrev(e); val dx = dlNext(e)
    if (dp != -1) dlNext(dp) = dx else { if (dx != -1) dlHead(v) = dx else dlHead.remove(v) }
    if (dx != -1) dlPrev(dx) = dp else { if (dp != -1) dlTail(v) = dp else dlTail.remove(v) }
    // PL unlink + strength / degree
    val key = TemporalEdge.pairKey(u, v)
    val pp = plPrev(e); val px = plNext(e)
    if (pp != -1) plNext(pp) = px else { if (px != -1) plHeadM(key) = px else plHeadM.remove(key) }
    if (px != -1) plPrev(px) = pp else { if (pp != -1) plTailM(key) = pp else plTailM.remove(key) }
    val c = pairCount(key) - 1
    if (c == 0) {
      pairCount.remove(key)
      purgePending.remove(key)
      decDegree(u); decDegree(v)
    } else {
      pairCount(key) = c
      if (c < h && !purgePending.getOrElse(key, false)) {
        purgePending(key) = true
        purgeQueue.enqueue(key)
      }
    }
  }

  /** Deletes every remaining edge of pairs whose strength fell below `h`
    * (the modified TCD of §6.2). A no-op when `h == 1`.
    */
  private def drainPurges(): Unit = {
    while (purgeQueue.nonEmpty) {
      val key = purgeQueue.dequeue()
      if (purgePending.getOrElse(key, false)) {
        purgePending.remove(key)
        var e = plHeadM.getOrElse(key, -1)
        while (e != -1) { val nx = plNext(e); delEdge(e); e = nx }
      }
    }
  }

  // --------------------------------------------------------- TCD operation

  /** Truncation phase of TCD (Algorithm 4 lines 1–14): remove every TL with
    * timestamp outside `[ts, te]`, walking the timeline from both ends.
    */
  def truncate(ts: Int, te: Int): Unit = {
    while (headTn != -1 && tVals(headTn) < ts) {
      val tn = headTn
      var e = tlHead(tn)
      // Deleting the TL's last edge removes the time node and advances headTn.
      while (e != -1) { val nx = tlNext(e); delEdge(e); e = nx }
    }
    while (tailTn != -1 && tVals(tailTn) > te) {
      val tn = tailTn
      var e = tlHead(tn)
      while (e != -1) { val nx = tlNext(e); delEdge(e); e = nx }
    }
    drainPurges()
  }

  /** Decomposition phase of TCD (Algorithm 4 lines 15–24): peel vertices
    * with fewer than `k` distinct (strength-qualified) neighbours.
    */
  def decompose(k: Int): Unit = {
    drainPurges()
    var done = false
    while (!done && heap.nonEmpty) {
      val key = heap.peek
      val d = (key >>> 32).toInt
      val v = key & 0xFFFFFFFFL
      val cur = degree.getOrElse(v, -1)
      if (cur != d) { heap.pop(); () } // stale entry
      else if (d >= k) done = true
      else {
        heap.pop()
        // peel v: delete all incident edges via SL(v) then DL(v)
        var e = slHead.getOrElse(v, -1)
        while (e != -1) { val nx = slNext(e); delEdge(e); e = nx }
        e = dlHead.getOrElse(v, -1)
        while (e != -1) { val nx = dlNext(e); delEdge(e); e = nx }
        drainPurges()
      }
    }
  }

  /** Full TCD operation: induce the temporal k-core of `[ts, te]` in place. */
  def tcd(k: Int, ts: Int, te: Int): Unit = { truncate(ts, te); decompose(k) }

  /** Fresh TEL holding only the alive edges with timestamps in `[ts, te]` —
    * the paper's "copy of TEL(G[Ts,Te]) obtained by truncating TEL(G)"
    * (§5.2) without mutating the master: O(|E_[ts,te]|) plus a pointer walk
    * over the timeline prefix.
    */
  def copyRange(ts: Int, te: Int): TEL = {
    val t = new TEL(h)
    var tn = headTn
    while (tn != -1 && tVals(tn) < ts) tn = tnNext(tn)
    while (tn != -1 && tVals(tn) <= te) {
      var e = tlHead(tn)
      while (e != -1) { t.addEdge(us(e), vs(e), ets(e)); e = tlNext(e) }
      tn = tnNext(tn)
    }
    t
  }

  /** Deep copy: rebuilds a fresh TEL from the alive edges, O(|E| alive). */
  def copy(): TEL = copyRange(Int.MinValue, Int.MaxValue)

  /** Exact byte accounting of the array-backed storage plus an estimate for
    * the hash maps (Table 5). Pointers in the paper's TEL correspond to the
    * Int link slots here.
    */
  def memoryFootprintBytes: Long = {
    val edgeArrays = us.length.toLong * (8 + 8 + 4 + 1 + 4 * 8) // ids, t, alive, 8 link slots
    val timeArrays = tVals.length.toLong * (4 * 6)
    val mapEntries = (slHead.size + slTail.size + dlHead.size + dlTail.size +
      plHeadM.size + plTailM.size + pairCount.size + degree.size + tnOf.size).toLong
    edgeArrays + timeArrays + mapEntries * 48 + heap.size.toLong * 8
  }
}

object TEL {

  /** Builds a TEL from a collection of temporal edges (sorted internally by
    * timestamp — the construction the paper describes: iterative appends).
    * Self-loops are rejected.
    */
  def fromEdges(edges: IterableOnce[TemporalEdge], h: Int = 1): TEL = {
    val sorted = edges.iterator.toArray.sortBy(_.t)
    val tel = new TEL(h)
    var i = 0
    while (i < sorted.length) {
      val e = sorted(i)
      tel.addEdge(e.u, e.v, e.t)
      i += 1
    }
    tel
  }

  /** An empty, dynamically growable TEL (dynamic-graph extension, §6.1). */
  def empty(h: Int = 1): TEL = new TEL(h)
}
