package perfbench

import org.scalatest.funsuite.AnyFunSuite

import repro.core.CoconutTree
import repro.series.{SaxParams, SeriesGen}
import repro.storage.DiskModel

class OracleSpec extends AnyFunSuite {

  private val data = Array(Array(0.0, 0.0), Array(3.0, 4.0), Array(1.0, 1.0), Array(1.0, 1.0))

  test("nearest scans only the prefix and breaks ties by lowest id") {
    assert(Oracle.nearest(data, 4, Array(1.0, 1.0)) == (2, 0.0))
    assert(Oracle.nearest(data, 2, Array(1.0, 1.0)) == (0, math.sqrt(2)))
    assert(Oracle.nearest(data, 4, Array(3.0, 3.9))._1 == 1)
    assertThrows[IllegalArgumentException](Oracle.nearest(data, 5, Array(0.0, 0.0)))
  }

  test("nearestAll matches nearest for every (query, prefix)") {
    val asks = IndexedSeq((Array(1.0, 1.0), 2), (Array(3.0, 4.0), 4), (Array(0.9, 1.2), 3))
    assert(Oracle.nearestAll(data, asks).toSeq == asks.map { case (q, n) => Oracle.nearest(data, n, q) })
  }

  test("exact and approximate answers are judged by distance") {
    val truth = (2, 0.0)
    assert(Oracle.exactOk(0.0, truth))
    assert(!Oracle.exactOk(1e-3, truth))
    val q = Array(1.0, 1.0)
    assert(Oracle.approxOk(data, q, 3, 0.0, truth))            // a tie is a right answer
    assert(Oracle.approxOk(data, q, 0, math.sqrt(2), truth))
    assert(!Oracle.approxOk(data, q, 0, 1.0, truth))           // distance not that of the id
    assert(!Oracle.approxOk(data, q, 9, 0.0, truth))           // no such id
    assert(!Oracle.approxOk(data, q, 0, math.sqrt(2), (0, 2.0))) // better than exact
  }

  test("leaf order, directory and id-set checks catch each fault") {
    assert(Oracle.sortedLeaves(Iterator(1L, 1L, 5L), 3))
    assert(!Oracle.sortedLeaves(Iterator(1L, 5L, 4L), 3))
    assert(!Oracle.sortedLeaves(Iterator(1L, 5L), 3))
    assert(Oracle.disjointDirectory(Seq((0L, 4L, 2L), (5L, 9L, 3L)), 5))
    assert(!Oracle.disjointDirectory(Seq((0L, 5L, 2L), (5L, 9L, 3L)), 5)) // overlap
    assert(!Oracle.disjointDirectory(Seq((5L, 9L, 3L), (0L, 4L, 2L)), 5)) // out of order
    assert(!Oracle.disjointDirectory(Seq((0L, 4L, 2L), (5L, 9L, 2L)), 5)) // counts
    assert(Oracle.holdsAll(Iterator(2, 0, 1), 3))
    assert(!Oracle.holdsAll(Iterator(0, 0, 1), 3))
    assert(!Oracle.holdsAll(Iterator(0, 1), 3))
  }

  test("the local engine passes every check on a small index") {
    val p = SaxParams(64, 8, 6)
    val series = SeriesGen.dataset("walk", 3000, 64, 5L)
    val queries = SeriesGen.queries("walk", 5, 64, 5L)
    val t = new Tally(new Trace(false))
    new LocalQuery(LocalSpec("walk", 3000, 64, 8, 6, 100, queries = 5, exactQueries = 5, fullExactQueries = 3, approxBatch = 2), series, queries).round(t)
    assert(t.failed == 0 && t.wrong.isEmpty && t.faults.isEmpty)
    assert(t.attempted == Local.BuildRepeats + 1 + 2 * 5 + 5 + 3)
    val tree = CoconutTree.bulkLoad(series, p, 100, 1L << 20, new DiskModel(), materialized = false)
    assert(tree.exactSearch(queries(0)).dist == Oracle.nearest(series, series.length, queries(0))._2)
  }

  test("a wrong answer counts its operation as failed") {
    val t = new Tally(new Trace(false))
    t.attempt(1)
    t.check("exact answer", ok = false)
    assert(t.attempted == 1 && t.failed == 1 && t.wrong("exact answer") == 1)
  }

  test("at 16 x 8 bits a round either fails whole, with one named fault, or is all right") {
    // The paper's default summarization needs 128-bit keys: while the engine's
    // keys are one Long, the bulk loads fail and every query fails with them.
    val spec = LocalSpec("walk", 500, 256, 16, 8, 100, queries = 3, exactQueries = 3, fullExactQueries = 3, approxBatch = 2)
    val series = SeriesGen.dataset("walk", 500, 256, 1L)
    val t = new Tally(new Trace(false))
    new LocalQuery(spec, series, SeriesGen.queries("walk", 3, 256, 1L)).round(t)
    assert(t.attempted == Local.BuildRepeats + 1 + 4 * 3 && t.wrong.isEmpty)
    assert(t.failed == 0 || (t.failed == t.attempted && t.faults.size == 1), t.faults)
  }
}
