# Two invocations must agree byte for byte on stdout and on the exit
# code: TOOL with ARGS1, then TOOL2 with ARGS2.  Every run-twice-and-diff
# test uses it, to pin that something result-neutral (a rerun, the worker
# count, memoization, the exact-arithmetic slow path) cannot leak into
# the output.
#
#   cmake -DTOOL=... "-DARGS1=..." [-DTOOL2=...] ["-DARGS2=..."]
#         [-DINPUT=<file>] [-DEXPECTED=<exit code>]
#         [-DNORMALIZE_FINGERPRINT=1] -P check_same_output.cmake
#
# TOOL2 defaults to TOOL and ARGS2 to ARGS1.  INPUT feeds the same file to
# both runs on stdin.  EXPECTED additionally requires both runs to exit
# with that code.  NORMALIZE_FINGERPRINT blanks the wire format's
# "fingerprint" field before comparing: option knobs fold into the
# fingerprint by design, so two option sets that must agree on *results*
# still differ there.
if(NOT DEFINED TOOL2)
  set(TOOL2 "${TOOL}")
endif()
if(NOT DEFINED ARGS2)
  set(ARGS2 "${ARGS1}")
endif()
set(STDIN "")
if(INPUT)
  set(STDIN INPUT_FILE ${INPUT})
endif()
separate_arguments(ARG_LIST1 UNIX_COMMAND "${ARGS1}")
separate_arguments(ARG_LIST2 UNIX_COMMAND "${ARGS2}")
execute_process(COMMAND ${TOOL} ${ARG_LIST1} ${STDIN} OUTPUT_VARIABLE OUT1
                RESULT_VARIABLE RC1 ERROR_QUIET)
execute_process(COMMAND ${TOOL2} ${ARG_LIST2} ${STDIN} OUTPUT_VARIABLE OUT2
                RESULT_VARIABLE RC2 ERROR_QUIET)
set(RUN1 "${TOOL} ${ARGS1}")
set(RUN2 "${TOOL2} ${ARGS2}")
if(NORMALIZE_FINGERPRINT)
  string(REGEX REPLACE "\"fingerprint\":\"[0-9a-f]+\"" "\"fingerprint\":\"\""
         OUT1 "${OUT1}")
  string(REGEX REPLACE "\"fingerprint\":\"[0-9a-f]+\"" "\"fingerprint\":\"\""
         OUT2 "${OUT2}")
endif()
if(DEFINED EXPECTED AND
   NOT (RC1 STREQUAL EXPECTED AND RC2 STREQUAL EXPECTED))
  message(FATAL_ERROR "expected exit code ${EXPECTED}: '${RUN1}' -> ${RC1}, "
                      "'${RUN2}' -> ${RC2}")
endif()
if(NOT RC1 STREQUAL RC2)
  message(FATAL_ERROR "exit codes differ: '${RUN1}' -> ${RC1}, "
                      "'${RUN2}' -> ${RC2}")
endif()
if(NOT OUT1 STREQUAL OUT2)
  message(FATAL_ERROR "output differs between invocations:\n"
                      "--- ${RUN1} ---\n${OUT1}\n--- ${RUN2} ---\n${OUT2}")
endif()
if(OUT1 STREQUAL "")
  message(FATAL_ERROR "tool printed nothing; comparison is vacuous")
endif()
