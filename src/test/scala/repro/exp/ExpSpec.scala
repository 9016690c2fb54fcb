package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import repro.graphgen.Datasets

/** Tests of the experiment harness utilities plus a smoke run of the
  * per-query harness on the smallest dataset (full table sweeps live in
  * `bench/`).
  */
class ExpSpec extends AnyFunSuite {

  test("TextTable renders aligned rows") {
    val s = TextTable.render("T", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("333", "4")))
    val lines = s.split('\n')
    assert(lines(0) == "== T ==")
    assert(lines.drop(1).map(_.length).distinct.size == 1) // all rows equal width
    assert(lines(1).contains("a") && lines(1).contains("bb"))
  }

  test("Timing.time measures and returns the result") {
    val (x, ms) = Timing.time { Thread.sleep(10); 42 }
    assert(x == 42)
    assert(ms >= 9)
  }

  test("Timing.fmtMs switches units") {
    assert(Timing.fmtMs(12.34) == "12.3 ms")
    assert(Timing.fmtMs(2500) == "2.50 s")
  }

  test("runQuery smoke test: three algorithms agree on query 6 (email-lite)") {
    val row = Tables.runQuery(Datasets.queryById(6))
    assert(row.dataset == "email-lite")
    assert(row.resultCount >= 1)
    assert(row.otcdMs > 0 && row.tcdMs > 0 && row.baselineMs > 0)
  }
}
