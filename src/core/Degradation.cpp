//===- core/Degradation.cpp - Graceful-degradation reporting --------------===//

#include "core/Degradation.h"

#include "obs/Instrument.h"

using namespace anosy;

void anosy::publishSessionStats(const SessionStats &Stats) {
  ANOSY_OBS_GAUGE_SET("anosy_session_solver_nodes",
                      "Cumulative solver nodes of the last session creation",
                      static_cast<int64_t>(Stats.SolverNodes));
  ANOSY_OBS_GAUGE_SET("anosy_session_synth_attempts",
                      "Synthesis attempts across the last session creation",
                      static_cast<int64_t>(Stats.Attempts));
  ANOSY_OBS_GAUGE_SET("anosy_session_degraded_queries",
                      "Queries degraded during the last session creation",
                      static_cast<int64_t>(Stats.DegradedQueries));
  ANOSY_OBS_OBSERVE_SECONDS("anosy_session_synth_seconds",
                            "Synthesis wall time per session creation",
                            Stats.SynthSeconds);
}

const char *anosy::degradationReasonName(DegradationReason R) {
  switch (R) {
  case DegradationReason::SynthesisExhausted:
    return "synthesis-exhausted";
  case DegradationReason::VerificationUndecided:
    return "verification-undecided";
  case DegradationReason::KnowledgeBaseCorrupt:
    return "knowledge-base-corrupt";
  case DegradationReason::LoadedArtifactInvalid:
    return "loaded-artifact-invalid";
  case DegradationReason::StaticallyRejected:
    return "statically-rejected";
  }
  return "unknown";
}

const char *anosy::reasonCodeName(ReasonCode C) {
  switch (C) {
  case ReasonCode::None:
    return "none";
  case ReasonCode::Deadline:
    return "deadline";
  case ReasonCode::Budget:
    return "budget";
  case ReasonCode::Shed:
    return "shed";
  case ReasonCode::StaticallyRejected:
    return "statically-rejected";
  case ReasonCode::Undecided:
    return "undecided";
  case ReasonCode::KbCorrupt:
    return "kb-corrupt";
  case ReasonCode::ArtifactInvalid:
    return "artifact-invalid";
  }
  return "unknown";
}

ReasonCode QueryDegradation::code() const {
  switch (Reason) {
  case DegradationReason::SynthesisExhausted:
    return DeadlineExpired ? ReasonCode::Deadline : ReasonCode::Budget;
  case DegradationReason::VerificationUndecided:
    return DeadlineExpired ? ReasonCode::Deadline : ReasonCode::Undecided;
  case DegradationReason::KnowledgeBaseCorrupt:
    return ReasonCode::KbCorrupt;
  case DegradationReason::LoadedArtifactInvalid:
    return ReasonCode::ArtifactInvalid;
  case DegradationReason::StaticallyRejected:
    return ReasonCode::StaticallyRejected;
  }
  return ReasonCode::None;
}

std::string QueryDegradation::str() const {
  std::string Out = Query;
  Out += ": ";
  Out += degradationReasonName(Reason);
  Out += FellBack ? " -> bottom fallback" : " -> partial artifact kept";
  Out += " (attempts: " + std::to_string(Attempts) + ")";
  Out += " [code=";
  Out += reasonCodeName(code());
  Out += ']';
  if (!Detail.empty()) {
    Out += "  ";
    Out += Detail;
  }
  return Out;
}

const QueryDegradation *DegradationReport::find(const std::string &Name) const {
  for (const QueryDegradation &Q : Queries)
    if (Q.Query == Name)
      return &Q;
  return nullptr;
}

std::string DegradationReport::str() const {
  std::string Out;
  for (const QueryDegradation &Q : Queries) {
    Out += Q.str();
    Out += '\n';
  }
  return Out;
}
