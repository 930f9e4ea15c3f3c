package perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("percentile interpolates between the closest ranks") {
    val xs = Seq(4.0, 1.0, 3.0, 2.0)
    assert(Stats.percentile(xs, 0) == 1.0)
    assert(Stats.percentile(xs, 100) == 4.0)
    assert(Stats.median(xs) == 2.5)
    assert(math.abs(Stats.percentile(xs, 95) - 3.85) < 1e-12)
    assert(Stats.median(Seq(7.0)) == 7.0)
    assert(Stats.percentile(Seq.empty, 50).isNaN)
  }

  test("percentile rejects a rank outside [0, 100]") {
    assertThrows[IllegalArgumentException](Stats.percentile(Seq(1.0), 101))
  }

  test("p95 of 1..200 leaves ten samples above it") {
    val xs = (1 to 200).map(_.toDouble)
    assert(xs.count(_ > Stats.percentile(xs, 95)) == 10)
  }

  test("timeBatches makes one sample per batch and keeps results in order") {
    val calls = collection.mutable.ArrayBuffer.empty[Int]
    val (samples, results) = Stats.timeBatches(0 until 10, 4) { i => calls += i; i * i }
    assert(samples.length == 3) // 4 + 4 + 2
    assert(samples.forall(_ >= 0))
    assert(results == (0 until 10).map(i => i * i))
    assert(calls == (0 until 10))
  }

  test("timeBatches reports each batch's mean per call") {
    val (samples, _) = Stats.timeBatches(0 until 4, 2)(_ => Thread.sleep(5))
    assert(samples.length == 2)
    assert(samples.forall(ms => ms >= 5.0 && ms < 50.0)) // per call, not per batch of two
  }

  test("timeBatches rejects an empty batch size") {
    assertThrows[IllegalArgumentException](Stats.timeBatches(0 until 3, 0)(identity))
  }

  test("Json writes finite numbers with all their digits and escapes strings") {
    assert(Json.num(3.0) == "3")
    assert(Json.num(0.1234567890123) == "0.1234567890123")
    assert(Json.str("a\"b\\c\n") == "\"a\\\"b\\\\c\\u000a\"")
    assertThrows[IllegalArgumentException](Json.num(Double.NaN))
  }
}
