package perfbench

import scala.collection.mutable

import repro.core.CoconutTree
import repro.index.{BruteForce, SeriesIndex}
import repro.series.{InvSAX, SAX, SaxParams, Series}
import repro.storage.DiskModel

/** Metrics of a run, by name, each with its unit. */
object Metrics {

  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "build_s" -> "s", "approx_ms_p50" -> "ms", "exact_ms_p50" -> "ms", "workload_s" -> "s")

  val SparkCalls: Seq[String] = Seq("bulk_load", "load", "approx", "exact")
  val SparkCounters: Seq[(String, String)] = Seq(
    "jobs" -> "count", "tasks" -> "count", "records_read" -> "count", "bytes_read_mb" -> "MB",
    "shuffle_write_mb" -> "MB", "output_mb" -> "MB", "executor_run_s" -> "s", "gc_s" -> "s")

  /** Every per-layer metric. A layer a workload does not run reads 0. */
  val PerLayer: Seq[(String, String)] = Seq(
    "gen.series_per_s" -> "series/s",
    "series.paa_ns" -> "ns", "series.sax_ns" -> "ns", "series.interleave_ns" -> "ns",
    "series.decode_ns" -> "ns", "series.mindist_ns" -> "ns", "series.ed_ns" -> "ns", "series.tlb" -> "ratio",
    "core.bulk_load_s" -> "s", "core.leaves" -> "count", "core.leaf_fill" -> "ratio",
    "core.index_mb" -> "MB", "core.index_heap_mb" -> "MB",
    "core.approx_us" -> "us", "core.approx_records" -> "count", "core.approx_dist_ratio" -> "ratio",
    "core.exact_ms" -> "ms", "core.exact_ms_p95" -> "ms", "core.exact_minus_approx_ms" -> "ms",
    "core.exact_records" -> "count", "core.pruning_ratio" -> "ratio",
    "core.full_exact_ms" -> "ms", "core.full_exact_records" -> "count",
    "core.merge_ms" -> "ms", "core.insert_series_per_s" -> "series/s",
    "index.bruteforce_ms" -> "ms",
    "storage.build_random_ops" -> "count", "storage.build_seq_blocks" -> "count",
    "storage.exact_random_ops" -> "count", "storage.exact_seq_blocks" -> "count",
    "storage.approx_random_ops" -> "count", "storage.approx_seq_blocks" -> "count",
    "storage.merge_random_ops" -> "count", "storage.merge_seq_blocks" -> "count",
    "storage.build_io_s" -> "s", "storage.exact_io_ms" -> "ms", "storage.workload_io_s" -> "s",
  ) ++ SparkCalls.flatMap(c => SparkCounters.map { case (m, u) => s"spark.$c.$m" -> u }) ++ Seq(
    "spark.load_s" -> "s", "spark.index_mb" -> "MB", "spark.approx_dist_ratio" -> "ratio",
    "spark.summarize_s" -> "s", "spark.bulk_load.stage_run_s" -> "s", "spark.schema_read_ms" -> "ms",
    "trace.spans" -> "count")
}

/** Per-layer measurements taken in the traced run. */
object Layers {
  @volatile private var sink = 0.0

  /** Nanoseconds per call of `pass`, which makes `calls` calls; median of three passes. */
  private def nsPer(calls: Int)(pass: => Double): Double =
    Stats.median((1 to 3).map { _ =>
      val (ns, s) = Stats.timed(pass)
      sink += s
      ns.toDouble / calls
    })

  /** `repro.series` kernels over the workload's own data and queries. */
  def series(m: mutable.Map[String, Double], data: Array[Array[Double]], queries: Array[Array[Double]],
             p: SaxParams, seed: Long): Unit = {
    val n = data.length
    val paas = new Array[Array[Double]](n)
    val words = new Array[Array[Int]](n)
    m("series.paa_ns") = nsPer(n) { var i = 0; while (i < n) { paas(i) = Series.paa(data(i), p.w); i += 1 }; paas(0)(0) }
    m("series.sax_ns") = nsPer(n) { var i = 0; while (i < n) { words(i) = SAX.fromPaa(paas(i), p); i += 1 }; words(0)(0) }
    m("series.interleave_ns") = nsPer(n) {
      var s = 0; var i = 0; while (i < n) { s += InvSAX.interleave(words(i), p)(0); i += 1 }; s
    }
    if (p.totalBits <= 64) {
      val keys = words.map(InvSAX.toLong(_, p))
      m("series.decode_ns") = nsPer(n) { var s = 0; var i = 0; while (i < n) { s += InvSAX.fromLong(keys(i), p)(0); i += 1 }; s }
    }
    val qs = queries.take(3)
    val qPaas = qs.map(Series.paa(_, p.w))
    m("series.mindist_ns") = nsPer(n * qs.length) {
      var s = 0.0
      for (qp <- qPaas) { var i = 0; while (i < n) { s += SAX.minDistPaaToSax(qp, words(i), p); i += 1 } }
      s
    }
    m("series.ed_ns") = nsPer(n * qs.length) {
      var s = 0.0
      for (q <- qs) { var i = 0; while (i < n) { s += Series.squaredEuclideanAbandon(data(i), q, Double.PositiveInfinity); i += 1 } }
      s
    }
    // Tightness of the lower bound: MINDIST / ED over random (query, series) pairs.
    val rnd = new java.util.Random(seed)
    val ratios = for (q <- queries.take(20); _ <- 1 to 200) yield {
      val i = rnd.nextInt(n)
      val ed = Oracle.dist(data(i), q)
      if (ed > 0) SAX.minDistPaaToSax(Series.paa(q, p.w), words(i), p) / ed else 1.0
    }
    m("series.tlb") = Stats.mean(ratios.toSeq)
  }

  /** `BruteForce.nn`, the full scan any exact search must beat. */
  def bruteForce(m: mutable.Map[String, Double], t: Tally, data: Array[Array[Double]],
                 queries: Array[Array[Double]]): Unit = {
    queries.take(5).zipWithIndex.foreach { case (q, i) =>
      sink += t.trace.span("index.BruteForce.nn", i)(BruteForce.nn(data, q)).dist
    }
    m("index.bruteforce_ms") = Stats.median(t.trace.durations("index.BruteForce.nn")) / 1e6
  }

  /** `repro.core` and `repro.storage` figures of a local workload's rounds. */
  def local(m: mutable.Map[String, Double], t: Tally, inserted: Int): Unit = {
    val tr = t.trace
    def spanMedian(name: String, scale: Double) = Stats.median(tr.durations(name)) / scale
    def mean(name: String) = Stats.mean(t.get(name))
    if (t.get("CTree.exact_records").isEmpty) return // every call failed: nothing to report
    m("core.bulk_load_s") = spanMedian("core.CTree.bulkLoad", 1e9)
    m("core.approx_us") = spanMedian("core.CTree.approxSearch", 1e3)
    m("core.approx_records") = mean("CTree.approx_records")
    m("core.approx_dist_ratio") = mean("CTree.approx_dist_ratio")
    m("core.exact_ms") = spanMedian("core.CTree.exactSearch", 1e6)
    m("core.exact_ms_p95") = Stats.percentile(tr.durations("core.CTree.exactSearch"), 95) / 1e6
    m("core.exact_minus_approx_ms") = m("core.exact_ms") - m("core.approx_us") / 1e3
    m("core.exact_records") = mean("CTree.exact_records")
    m("core.pruning_ratio") = mean("CTree.pruning_ratio")
    if (t.get("CTreeFull.exact_records").nonEmpty) {
      m("core.full_exact_ms") = spanMedian("core.CTreeFull.exactSearch", 1e6)
      m("core.full_exact_records") = mean("CTreeFull.exact_records")
    }
    if (inserted > 0) {
      val merges = tr.durations("core.CTree.bulkInsertMerge")
      m("core.merge_ms") = Stats.median(merges) / 1e6
      val rounds = t.get("workload_ns").length
      m("core.insert_series_per_s") = inserted.toDouble * rounds / (merges.sum / 1e9)
      m("storage.merge_random_ops") = mean("CTree.merge.random_ops")
      m("storage.merge_seq_blocks") = mean("CTree.merge.seq_blocks")
    }
    for (k <- Seq("build", "exact", "approx"); c <- Seq("random_ops", "seq_blocks"))
      m(s"storage.${k}_$c") = mean(s"CTree.$k.$c")
    m("storage.build_io_s") = mean("CTree.build.io_ms") / 1e3
    m("storage.exact_io_ms") = mean("CTree.exact.io_ms")
    m("storage.workload_io_s") = mean("workload_io_ms") / 1e3
  }

  /** Shape, storage and retained heap of CTree bulk-loaded over all the
    * workload's series (the shape the update workload's index also ends in).
    */
  def localIndex(m: mutable.Map[String, Double], data: Array[Array[Double]], spec: LocalSpec): Unit = {
    val rt = Runtime.getRuntime
    def used() = { System.gc(); rt.totalMemory - rt.freeMemory }
    val before = used()
    val x = CoconutTree.bulkLoad(data, spec.p, spec.leafCap, spec.memBytes, new DiskModel(), materialized = false)
    m("core.index_heap_mb") = (used() - before) / 1e6
    m("core.leaves") = x.leafCount.toDouble
    m("core.leaf_fill") = x.avgLeafFill
    m("core.index_mb") = x.storagePages * SeriesIndex.AllocPageBytes / 1e6
  }

  /** Spark listener totals per call, as means per call; each stage's wall
    * time goes to the span file.
    */
  def spark(m: mutable.Map[String, Double], trace: Trace, totals: Map[String, SparkProbe#Totals],
            calls: Map[String, Int]): Unit =
    for (c <- Metrics.SparkCalls; tot <- totals.get(c); k = calls(c).toDouble) {
      tot.stageWallMs.foreach(ms => trace.note(s"""{"spark_stage_of":${Json.str(c)},"wall_ms":$ms}"""))
      m(s"spark.$c.jobs") = tot.jobs / k
      m(s"spark.$c.tasks") = tot.tasks / k
      m(s"spark.$c.records_read") = tot.recordsRead / k
      m(s"spark.$c.bytes_read_mb") = tot.bytesRead / 1e6 / k
      m(s"spark.$c.shuffle_write_mb") = tot.shuffleWrite / 1e6 / k
      m(s"spark.$c.output_mb") = tot.output / 1e6 / k
      m(s"spark.$c.executor_run_s") = tot.runMs / 1e3 / k
      m(s"spark.$c.gc_s") = tot.gcMs / 1e3 / k
      if (c == "bulk_load") m("spark.bulk_load.stage_run_s") = tot.stageWallMs.sum / 1e3 / k
    }
}
