#include "core/pareto.hpp"

#include <algorithm>
#include <iomanip>
#include <numeric>
#include <sstream>

#include "common/error.hpp"
#include "fixed/rounding.hpp"
#include "hwmodel/cost_model.hpp"

namespace qcaps::core {

double spec_energy_pj(const MemoryModel& mem, const NetworkQuantSpec& spec) {
  QCAPS_CHECK(spec.layers.size() == mem.layers().size());
  double pj = 0.0;
  for (std::size_t i = 0; i < spec.layers.size(); ++i) {
    const auto& sizes = mem.layers()[i];
    const auto& ls = spec.layers[i];
    const int mac_bits = std::max(ls.weight_wordlength(), ls.act_wordlength());
    pj += hwmodel::layer_energy_pj(sizes.macs, mac_bits, sizes.squash_ops,
                                   ls.qa_frac, sizes.softmax_ops,
                                   ls.dr_format().qf);
  }
  return pj;
}

std::vector<std::size_t> pareto_front(const std::vector<SearchPoint>& points) {
  std::vector<std::size_t> order(points.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Cheapest first; within a footprint, most accurate first — so one sweep
  // keeps exactly the points no cheaper-or-equal point can match.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (points[a].weight_bits != points[b].weight_bits)
      return points[a].weight_bits < points[b].weight_bits;
    return points[a].accuracy > points[b].accuracy;
  });
  std::vector<std::size_t> front;
  float best_acc = -1.0f;
  for (const std::size_t i : order) {
    // Truncated evaluations carry upper bounds, not accuracies — they can
    // appear in the point cloud but never on the front.
    if (points[i].truncated) continue;
    if (points[i].accuracy > best_acc) {
      front.push_back(i);
      best_acc = points[i].accuracy;
    }
  }
  return front;
}

void SearchTrace::attach(EvaluatorBase& eval) {
  const MemoryModel* mem = &eval.memory();
  eval.set_observer(
      [this, mem](const NetworkQuantSpec& spec, float acc, bool truncated) {
        record(*mem, spec, acc, truncated);
      });
}

void SearchTrace::record(const MemoryModel& mem, const NetworkQuantSpec& spec,
                         float accuracy, bool truncated) {
  SearchPoint p;
  p.spec = spec;
  p.accuracy = accuracy;
  p.truncated = truncated;
  p.weight_bits = mem.weight_bits(spec);
  p.activation_bits = mem.activation_bits(spec);
  p.energy_pj = spec_energy_pj(mem, spec);
  points_.push_back(std::move(p));
}

namespace {
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void append_fmt_array(std::ostringstream& os, const NetworkQuantSpec& spec,
                      fixed::FixedFormat (LayerQuantSpec::*fmt)() const) {
  os << '[';
  for (std::size_t i = 0; i < spec.layers.size(); ++i) {
    const fixed::FixedFormat f = (spec.layers[i].*fmt)();
    os << (i ? "," : "") << '"' << f.qi << '.' << f.qf << '"';
  }
  os << ']';
}
}  // namespace

std::string trace_to_json(const SearchTrace& trace, const TraceJsonMeta& meta) {
  std::ostringstream os;
  os << std::setprecision(6);
  os << "{\n";
  os << "  \"schema_version\": 1,\n";
  os << "  \"model\": \"" << json_escape(meta.model) << "\",\n";
  os << "  \"backend\": \"" << json_escape(meta.backend) << "\",\n";
  os << "  \"acc_fp32\": " << meta.acc_fp32 << ",\n";
  os << "  \"acc_target\": " << meta.acc_target << ",\n";
  os << "  \"selected_accuracy\": " << meta.selected_accuracy << ",\n";
  os << "  \"selected_scheme\": \"" << json_escape(meta.selected_scheme)
     << "\",\n";
  os << "  \"wall_seconds\": " << meta.wall_seconds << ",\n";
  os << "  \"evaluations\": " << meta.evaluations << ",\n";
  os << "  \"memo_hits\": " << meta.memo_hits << ",\n";
  os << "  \"cut_resumes\": " << meta.cut_resumes << ",\n";
  os << "  \"layers\": [";
  for (std::size_t i = 0; i < meta.layer_names.size(); ++i)
    os << (i ? "," : "") << '"' << json_escape(meta.layer_names[i]) << '"';
  os << "],\n";
  os << "  \"points\": [\n";
  const auto& pts = trace.points();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const auto& p = pts[i];
    os << "    {\"scheme\": \"" << fixed::scheme_name(p.spec.scheme)
       << "\", \"accuracy\": " << p.accuracy
       << ", \"weight_bits\": " << p.weight_bits
       << ", \"activation_bits\": " << p.activation_bits
       << ", \"energy_pj\": " << p.energy_pj
       << ", \"truncated\": " << (p.truncated ? "true" : "false")
       << ", \"qw\": ";
    append_fmt_array(os, p.spec, &LayerQuantSpec::weight_format);
    os << ", \"qa\": ";
    append_fmt_array(os, p.spec, &LayerQuantSpec::act_format);
    os << ", \"qdr\": ";
    append_fmt_array(os, p.spec, &LayerQuantSpec::dr_format);
    os << '}' << (i + 1 < pts.size() ? "," : "") << '\n';
  }
  os << "  ],\n";
  os << "  \"pareto\": [";
  const auto front = trace.pareto_indices();
  for (std::size_t i = 0; i < front.size(); ++i)
    os << (i ? "," : "") << front[i];
  os << "]\n";
  os << "}\n";
  return os.str();
}

}  // namespace qcaps::core
