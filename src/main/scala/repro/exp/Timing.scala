package repro.exp

/** Wall-clock timing helpers for the benchmark harness. */
object Timing {

  /** Runs `body`, returning its result and elapsed milliseconds. */
  def time[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    val ms = (System.nanoTime() - t0) / 1e6
    (a, ms)
  }

  def fmtMs(ms: Double): String =
    if (ms >= 1000) f"${ms / 1000}%.2f s" else f"$ms%.1f ms"
}

/** Plain-text table rendering shared by benches and jobs. */
object TextTable {

  def render(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(cells: Seq[String]): String =
      cells.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (s"== $title ==" +: line(header) +: sep +: rows.map(line)).mkString("\n")
  }
}
