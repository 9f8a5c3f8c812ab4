//===- domains/uf/UFDomain.cpp - Uninterpreted functions domain ------------===//

#include "domains/uf/UFDomain.h"

#include "obs/Metrics.h"

using namespace cai;

void UFDomain::countJoin() const { CAI_METRIC_INC("domain.uf.joins"); }
