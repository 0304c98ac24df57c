"""The four perfbench workloads, by the names ``BENCHMARK.json`` declares."""

from workloads.batch import BatchCensus
from workloads.delta import DeltaCensus
from workloads.serve import ServeMixed
from workloads.stream import StreamCensus

WORKLOADS = {
    cls.name: cls for cls in (BatchCensus, StreamCensus, DeltaCensus, ServeMixed)
}
