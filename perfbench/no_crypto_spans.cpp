// perfbench_plain and perfbench_compose link the library's crypto directly;
// only perfbench_traced wraps it (crypto_spans.cpp).
namespace perfbench {
bool crypto_spans_linked() { return false; }
}  // namespace perfbench
