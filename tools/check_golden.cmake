# Golden-output contract: TOOL run with ARGS must print exactly the bytes
# of GOLDEN on stdout and exit with code EXPECTED.
#
#   cmake -DTOOL=<binary> "-DARGS=<args>" -DGOLDEN=<expected stdout file>
#         -DEXPECTED=<exit code> [-DDIR=<cwd>] -P check_golden.cmake
#
# With DIR the tool runs there, so program paths on the command line (and
# the File: prefix they put on lint findings) stay relative and the goldens
# stay machine-independent.  Regenerate a golden by running the same
# command from the same directory and committing the diff deliberately.
separate_arguments(ARG_LIST UNIX_COMMAND "${ARGS}")
if(NOT DIR)
  set(DIR ".")
endif()
execute_process(COMMAND ${TOOL} ${ARG_LIST} WORKING_DIRECTORY ${DIR}
                OUTPUT_VARIABLE OUT RESULT_VARIABLE RC ERROR_VARIABLE ERR)
file(READ ${GOLDEN} WANT)
if(NOT OUT STREQUAL WANT)
  message(FATAL_ERROR "stdout diverges from golden ${GOLDEN}:\n"
                      "--- expected ---\n${WANT}\n--- actual ---\n${OUT}\n"
                      "--- stderr ---\n${ERR}")
endif()
if(NOT RC EQUAL ${EXPECTED})
  message(FATAL_ERROR "exit code '${RC}', expected ${EXPECTED} for golden "
                      "${GOLDEN}\nstderr:\n${ERR}")
endif()
