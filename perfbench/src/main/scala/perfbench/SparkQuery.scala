package perfbench

import java.nio.file.{Files, Path}

import org.apache.spark.sql.SparkSession

import repro.SynthData
import repro.core.CoconutSpark
import repro.series.SaxParams

final case class SparkWorkSpec(n: Int, len: Int, w: Int, bits: Int, leaves: Int, approxQueries: Int, exactQueries: Int) {
  val p: SaxParams = SaxParams(len, w, bits)
}

/** `spark-query`: bulk-load `CoconutSpark` from a Parquet input written
  * during set-up, load the index, then answer a fixed set of approximate
  * (radius 1) and exact queries, one at a time.
  *
  * @param data the same series as the Parquet input, generated locally,
  *             for the brute-force answers
  */
final class SparkQuery(spark: SparkSession, spec: SparkWorkSpec, seed: Long, dir: Path,
                       probe: Option[SparkProbe], data: Array[Array[Double]], queries: Array[Array[Double]]) {
  require(data.length == spec.n && queries.length >= math.max(spec.approxQueries, spec.exactQueries))
  val inputPath: String = dir.resolve("input").toString
  val indexPath: String = dir.resolve("index").toString
  private val truth = Oracle.nearestAll(data, queries.toIndexedSeq.map(q => (q, data.length)))

  /** Runs `body` with its Spark jobs filed under `name` when tracing. */
  def call[A](name: String)(body: => A): A = probe.fold(body)(_.tagged(name)(body))

  /** Generates the input with the program's own generator and writes it as Parquet. */
  def writeInput(): Unit =
    SynthData.dataSeries(spark, spec.n.toLong, spec.len, "walk", seed).write.mode("overwrite").parquet(inputPath)

  def round(t: Tally): Unit = {
    t.settleHeap()
    val t0 = System.nanoTime()
    val c0 = t.ownNs
    t.timedAttempt("Spark.build_ns", "spark.CoconutSpark.bulkLoad") {
      call("bulk_load")(CoconutSpark.bulkLoad(spark.read.parquet(inputPath), spec.p, spec.leaves, indexPath))
    }
    val index = t.timedAttempt("Spark.load_ns", "spark.CoconutSpark.load") {
      call("load")(CoconutSpark.load(spark, indexPath, spec.p))
    }
    index.foreach { x =>
      t.check("leaf directory disjoint, ordered, counts sum to N",
              Oracle.disjointDirectory(x.bounds.toSeq.map(b => (b.minInv, b.maxInv, b.count)), spec.n.toLong))
    }
    for (i <- 0 until spec.approxQueries) {
      val r = t.timedAttempt("Spark.approx_ns", "spark.CoconutSpark.approxSearch", i) {
        call("approx")(CoconutSpark.approxSearch(spark, index.get, queries(i), 1))
      }
      r.foreach { case (id, d) =>
        t.check("approximate answer", Oracle.approxOk(data, queries(i), id, d, truth(i)))
        if (truth(i)._2 > 0) t.add("Spark.approx_dist_ratio", d / truth(i)._2)
      }
    }
    for (i <- 0 until spec.exactQueries) {
      val r = t.timedAttempt("Spark.exact_ns", "spark.CoconutSpark.exactSearch", i) {
        call("exact")(CoconutSpark.exactSearch(spark, index.get, queries(i), 1))
      }
      r.foreach { case (_, d) => t.check("exact answer equals brute force", Oracle.exactOk(d, truth(i))) }
    }
    t.add("workload_ns", t.elapsedNs(t0, c0))
  }

  /** Bytes of the Parquet index directory. */
  def indexBytes: Long = {
    val s = Files.walk(Path.of(indexPath))
    try s.filter(Files.isRegularFile(_)).mapToLong(Files.size(_)).sum() finally s.close()
  }
}
