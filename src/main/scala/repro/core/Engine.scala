package repro.core

/** A mutable temporal-graph state that supports the TCD operation.
  *
  * The enumeration driver ([[TCQ]]) sees the graph only through this trait
  * and [[CoreEngine]]. The paper's TEL ([[TELState]]) is the one production
  * state; the seam stays so a caller can wrap or substitute the state the
  * driver works on, e.g. to time and count each TCD phase without touching
  * the driver or the TEL.
  */
trait CoreState {
  /** Truncation: drop edges with timestamps outside `[ts, te]`. */
  def truncate(ts: Int, te: Int): Unit

  /** Decomposition: peel vertices with fewer than `k` qualified neighbours. */
  def decompose(k: Int): Unit

  /** Current graph as a core result; None when empty. */
  def snapshot(): Option[CoreResult]

  /** Independent deep copy of the current state. */
  def copyState(): CoreState
}

/** Factory for the initial state `G[Ts,Te]` of a TCQ run. */
trait CoreEngine {
  /** Projected (truncated, not decomposed) graph over `[ts, te]`. */
  def initial(ts: Int, te: Int): CoreState
}

/** [[CoreState]] over the paper's TEL. */
final class TELState(val tel: TEL) extends CoreState {
  override def truncate(ts: Int, te: Int): Unit = tel.truncate(ts, te)
  override def decompose(k: Int): Unit = tel.decompose(k)
  override def snapshot(): Option[CoreResult] = tel.snapshot()
  override def copyState(): CoreState = new TELState(tel.copy())
}

/** [[CoreEngine]] over a master TEL, truncating copies of it per query
  * window (§5.2: the algorithm "starts to work on a copy of
  * TEL(G[Ts,Te])"). The master is never mutated by queries, so it may be
  * built elsewhere (e.g. from a DataFrame) or keep growing between queries.
  */
final class TELEngine(val master: TEL) extends CoreEngine {

  /** Builds the master TEL from an in-memory edge collection.
    *
    * @param h link-strength bound for the §6.2 extension
    */
  def this(allEdges: IndexedSeq[TemporalEdge], h: Int = 1) = this(TEL.fromEdges(allEdges, h))

  override def initial(ts: Int, te: Int): CoreState =
    new TELState(master.copyRange(ts, te))
}
