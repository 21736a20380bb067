#include "kernels/registry.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace sf {

const char* method_name(Method m) {
  switch (m) {
    case Method::Naive: return "naive";
    case Method::MultipleLoads: return "multiple-loads";
    case Method::DataReorg: return "data-reorg";
    case Method::DLT: return "dlt";
    case Method::Ours: return "ours";
    case Method::Ours2: return "ours-2step";
    case Method::Auto: return "auto";
  }
  return "?";
}

Method method_from_name(std::string_view name) {
  for (Method m : {Method::Naive, Method::MultipleLoads, Method::DataReorg,
                   Method::DLT, Method::Ours, Method::Ours2, Method::Auto})
    if (name == method_name(m)) return m;
  throw std::invalid_argument("unknown method name: " + std::string(name));
}

KernelRegistry& KernelRegistry::instance() {
  static KernelRegistry r;
  return r;
}

void KernelRegistry::add(KernelInfo info) { entries_.push_back(info); }

namespace {

bool isa_runs_here(Isa isa) {
  switch (isa) {
    case Isa::Scalar: return true;
    case Isa::Avx2: return cpu_has_avx2();
    case Isa::Avx512: return cpu_has_avx512();
    case Isa::Auto: return true;
  }
  return false;
}

bool order_by_method_isa(const KernelInfo* a, const KernelInfo* b) {
  if (a->method != b->method) return a->method < b->method;
  return a->isa < b->isa;
}

}  // namespace

namespace {

/// Lookup ISA levels to try, widest first. A concrete request is exact; an
/// Auto request falls back through every CPU-supported level, so a method
/// registered only at narrower widths (the extensibility case) is still
/// found on wider machines.
std::vector<Isa> lookup_levels(Isa isa) {
  if (isa != Isa::Auto) return {isa};
  std::vector<Isa> levels;
  for (Isa level : {Isa::Avx512, Isa::Avx2, Isa::Scalar})
    if (isa_runs_here(level)) levels.push_back(level);
  return levels;
}

}  // namespace

const KernelInfo* KernelRegistry::find(Method m, int dims, Isa isa) const {
  for (Isa level : lookup_levels(isa))
    for (const KernelInfo& e : entries_)
      if (e.method == m && e.dims == dims && e.isa == level) return &e;
  return nullptr;
}

const KernelInfo* KernelRegistry::find(std::string_view name, int dims,
                                       Isa isa) const {
  for (Isa level : lookup_levels(isa))
    for (const KernelInfo& e : entries_)
      if (name == e.name && e.dims == dims && e.isa == level) return &e;
  return nullptr;
}

std::vector<const KernelInfo*> KernelRegistry::available(int dims,
                                                         Isa isa) const {
  std::vector<const KernelInfo*> out;
  for (const KernelInfo& e : entries_) {
    if (e.dims != dims) continue;
    if (isa == Isa::Auto ? !isa_runs_here(e.isa) : e.isa != isa) continue;
    out.push_back(&e);
  }
  std::sort(out.begin(), out.end(), order_by_method_isa);
  return out;
}

std::vector<const KernelInfo*> KernelRegistry::all() const {
  std::vector<const KernelInfo*> out;
  out.reserve(entries_.size());
  for (const KernelInfo& e : entries_) out.push_back(&e);
  std::sort(out.begin(), out.end(), order_by_method_isa);
  return out;
}

std::vector<const KernelInfo*> available_kernels(int dims, Isa isa) {
  return KernelRegistry::instance().available(dims, isa);
}

const KernelInfo* find_kernel(Method m, int dims, Isa isa) {
  return KernelRegistry::instance().find(m, dims, isa);
}

const KernelInfo* find_kernel(std::string_view name, int dims, Isa isa) {
  return KernelRegistry::instance().find(name, dims, isa);
}

namespace {

[[noreturn]] void throw_missing(const std::string& what, int dims, Isa isa) {
  throw std::invalid_argument("no " + std::to_string(dims) +
                              "-D kernel for " + what + " at " +
                              isa_name(resolve_isa(isa)));
}

}  // namespace

const KernelInfo& require_kernel(Method m, int dims, Isa isa) {
  const KernelInfo* k = KernelRegistry::instance().find(m, dims, isa);
  if (k == nullptr) throw_missing(method_name(m), dims, isa);
  return *k;
}

const KernelInfo& require_kernel(std::string_view name, int dims, Isa isa) {
  const KernelInfo* k = KernelRegistry::instance().find(name, dims, isa);
  if (k == nullptr) throw_missing(std::string(name), dims, isa);
  return *k;
}

}  // namespace sf
