"""README's quickstarts run as printed: every command's output and every pinned value."""
import pathlib
import re
import shlex

from stc.cli import main

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text()


def _block(lang: str) -> str:
    """The first fenced block of ``lang`` in README."""
    return re.search(rf"```{lang}\n(.*?)```", README, re.S).group(1)


def _sessions() -> list[tuple[str, str]]:
    """(command, printed output) pairs of the console block."""
    parts = re.split(r"^\$ (.*)\n", _block("console"), flags=re.M)
    return [(cmd, out.rstrip("\n") + "\n") for cmd, out in zip(parts[1::2], parts[2::2])]


def test_readme_cli_quickstart_prints_what_it_shows(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    sessions = _sessions()
    assert sessions[0][0] == "cat panel.csv"
    (tmp_path / "panel.csv").write_text(sessions[0][1])
    assert [cmd.split()[1] for cmd, _ in sessions[1:]] == [
        "cv", "test", "rho-frontier", "table", "simulate"]
    for cmd, shown in sessions[1:]:
        argv = shlex.split(cmd)
        assert argv[0] == "stc"
        assert main(argv[1:]) == 0, cmd
        assert capsys.readouterr().out == shown, cmd


def test_readme_library_quickstart_values():
    code = _block("python")
    namespace: dict = {}
    exec(code, namespace)
    # a line "expression   # 6.884..." pins a prefix, "# 3.041 ..." a rounding
    pinned = re.findall(r"^(\S[^#\n]*?)\s+# (-?\d+\.\d+)(\.\.\.)?", code, re.M)
    assert [expr for expr, _, _ in pinned] == [
        "report.t_stat", "critical_value(5, 0.05, spec).cv"]
    for expr, number, truncated in pinned:
        value = eval(expr, namespace)
        decimals = len(number.split(".")[1])
        if truncated:
            assert str(value).startswith(number), expr
        else:
            assert f"{value:.{decimals}f}" == number, expr
    assert namespace["report"].reject == (namespace["report"].p_value <= 0.05)
    assert namespace["report"].ci[0] < namespace["report"].effect < namespace["report"].ci[1]
